#include "perfsim/simulator.hpp"

#include "support/error.hpp"

namespace plin::perfsim {

const char* to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kIme: return "IMe";
    case Algorithm::kScalapack: return "ScaLAPACK";
    case Algorithm::kCg: return "CG";
  }
  return "?";
}

const char* to_string(Precision precision) {
  return precision == Precision::kMixed ? "mixed" : "fp64";
}

Prediction Simulator::predict(const Workload& workload,
                              const hw::Placement& placement) const {
  if (workload.precision != Precision::kFp64) {
    PLIN_CHECK_MSG(workload.algorithm == Algorithm::kScalapack,
                   "perfsim: mixed precision is a GEPP (scalapack) variant; "
                   "IMe and CG have no fp32 path");
    return predict_scalapack_mixed(machine_, placement, workload.n,
                                   workload.nb);
  }
  switch (workload.algorithm) {
    case Algorithm::kIme:
      return predict_ime(machine_, placement, workload.n);
    case Algorithm::kScalapack:
      return predict_scalapack(machine_, placement, workload.n, workload.nb);
    case Algorithm::kCg:
      return predict_cg(machine_, placement, workload.n, workload.matrix,
                        workload.tolerance, workload.precond);
  }
  throw InvalidArgument("unknown algorithm");
}

}  // namespace plin::perfsim
