#include "linalg/kernel_config.hpp"

#include <algorithm>

namespace plin::linalg {
namespace {

/// Micro-kernel variants compiled into kernels.cpp. Keep in sync with the
/// dispatch table there.
constexpr std::size_t kSupportedTiles[][2] = {
    {4, 4}, {4, 8}, {8, 4}, {6, 8}, {8, 8}, {8, 16},
};

std::size_t round_up(std::size_t value, std::size_t multiple) {
  return ((value + multiple - 1) / multiple) * multiple;
}

KernelConfig& mutable_active() {
  static KernelConfig config = KernelConfig::defaults().normalized();
  return config;
}

}  // namespace

KernelConfig KernelConfig::defaults() {
  KernelConfig config;
#if defined(__AVX512F__)
  config.mr = 8;
  config.nr = 16;
#elif defined(__AVX__)
  config.mr = 6;
  config.nr = 8;
#else
  config.mr = 4;
  config.nr = 8;
#endif
  return config;
}

KernelConfig KernelConfig::normalized() const {
  KernelConfig config = *this;
  const KernelConfig base = defaults();
  if (config.mr == 0) config.mr = base.mr;
  if (config.nr == 0) config.nr = base.nr;
  // Snap (mr, nr) to the compiled variant with the least mismatch; ties go
  // to the larger tile (more register reuse).
  std::size_t best_mr = base.mr;
  std::size_t best_nr = base.nr;
  std::size_t best_cost = static_cast<std::size_t>(-1);
  for (const auto& tile : kSupportedTiles) {
    const std::size_t dm = tile[0] > config.mr ? tile[0] - config.mr
                                               : config.mr - tile[0];
    const std::size_t dn = tile[1] > config.nr ? tile[1] - config.nr
                                               : config.nr - tile[1];
    const std::size_t cost = dm + dn;
    if (cost < best_cost ||
        (cost == best_cost && tile[0] * tile[1] > best_mr * best_nr)) {
      best_cost = cost;
      best_mr = tile[0];
      best_nr = tile[1];
    }
  }
  config.mr = best_mr;
  config.nr = best_nr;
  config.mc = round_up(std::max<std::size_t>(config.mc, config.mr), config.mr);
  config.nc = round_up(std::max<std::size_t>(config.nc, config.nr), config.nr);
  config.kc = std::max<std::size_t>(config.kc, 1);
  config.trsm_block = std::max<std::size_t>(config.trsm_block, 1);
  config.ger_block = std::max<std::size_t>(config.ger_block, 1);
  return config;
}

const KernelConfig& active_kernel_config() { return mutable_active(); }

void set_kernel_config(const KernelConfig& config) {
  mutable_active() = config.normalized();
}

void reset_kernel_config() {
  mutable_active() = KernelConfig::defaults().normalized();
}

}  // namespace plin::linalg
