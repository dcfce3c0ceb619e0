#include "atl03/granule.hpp"

#include <cmath>
#include <stdexcept>

namespace is2::atl03 {

void BeamData::check_consistent() const {
  const std::size_t n = h.size();
  if (delta_time.size() != n || lat.size() != n || lon.size() != n ||
      along_track.size() != n || signal_conf.size() != n ||
      (!truth_class.empty() && truth_class.size() != n))
    throw std::invalid_argument("BeamData: per-photon arrays have inconsistent lengths");
  if (bckgrd_delta_time.size() != bckgrd_rate.size())
    throw std::invalid_argument("BeamData: background arrays have inconsistent lengths");
  // Preprocess interpolates the rates by binary search over these times.
  for (std::size_t i = 0; i < bckgrd_delta_time.size(); ++i) {
    if (!std::isfinite(bckgrd_delta_time[i]))
      throw std::invalid_argument("BeamData: background bin time is not finite");
    if (i > 0 && bckgrd_delta_time[i] < bckgrd_delta_time[i - 1])
      throw std::invalid_argument("BeamData: background bin times decrease");
  }
}

const BeamData& Granule::beam(BeamId id) const {
  for (const auto& b : beams)
    if (b.beam == id) return b;
  throw std::out_of_range(std::string("Granule: no beam ") + beam_name(id));
}

BeamData& Granule::beam(BeamId id) {
  for (auto& b : beams)
    if (b.beam == id) return b;
  throw std::out_of_range(std::string("Granule: no beam ") + beam_name(id));
}

bool Granule::has_beam(BeamId id) const {
  for (const auto& b : beams)
    if (b.beam == id) return true;
  return false;
}

std::size_t Granule::total_photons() const {
  std::size_t n = 0;
  for (const auto& b : beams) n += b.size();
  return n;
}

}  // namespace is2::atl03
