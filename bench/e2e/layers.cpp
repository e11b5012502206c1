// Per-layer probes of a traced run. Each probe times public functions of one
// layer from outside, under a bench-level span; the decomposition re-runs
// each workload template one layer down at a time (execute_job -> run_job
// -> reference generation + bare solver run -> empty world spawn), so
// every level reports its children and an unattributed remainder.
//
// This file is compiled with the host's widest vector ISA and with FMA
// contraction, so the roofline denominators match what the kernel library
// (also built with -march=native) can reach.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>

#include "batch/report.hpp"
#include "batch/runner.hpp"
#include "batch/store.hpp"
#include "e2e.hpp"
#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
#include "monitor/campaign.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "solvers/cg/cg.hpp"
#include "solvers/gepp/mixed.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "solvers/gepp/sequential.hpp"
#include "solvers/ime/imep.hpp"
#include "sparse/csr.hpp"
#include "sparse/generate.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"
#include "xmpi/runtime.hpp"

namespace plin::e2e {
namespace {

namespace fs = std::filesystem;
using perfsim::Algorithm;

#if defined(__AVX512F__)
typedef double Lane __attribute__((vector_size(64), aligned(8)));
#elif defined(__AVX__)
typedef double Lane __attribute__((vector_size(32), aligned(8)));
#else
typedef double Lane __attribute__((vector_size(16), aligned(8)));
#endif
constexpr std::size_t kLaneDoubles = sizeof(Lane) / sizeof(double);

/// Collects metrics and checks, and opens probe spans under `root`.
class Probes {
 public:
  Probes(SpanLog& log, PhaseResult& checks) : log_(log), checks_(checks) {}

  /// Runs `body` under a span named `name` (layer.probe).
  void span(const std::string& name, const std::function<void()>& body) {
    const Scope scope(&log_, name, root);
    try {
      body();
    } catch (const std::exception& e) {
      checks_.fail(name + ": " + e.what());
    }
  }

  void add(const std::string& name, double value, const char* unit,
           const char* clock = "host_s") {
    metrics.push_back(Metric{name, value, unit, clock});
  }

  void note(const std::string& name, double value, const char* unit,
            const char* clock = "none") {
    notes.push_back(Metric{name, value, unit, clock});
  }

  void check(bool ok, const std::string& what) {
    ++checks_.attempted;
    if (!ok) checks_.fail(what);
  }

  SpanLog& log() { return log_; }

  std::vector<Metric> metrics;
  std::vector<Metric> notes;
  SpanLog::Id root = SpanLog::kNoParent;

 private:
  SpanLog& log_;
  PhaseResult& checks_;
};

/// Median host seconds of `reps` calls.
template <typename F>
double median_seconds(int reps, F&& body) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Stopwatch wall;
    body();
    samples.push_back(wall.elapsed_s());
  }
  return quantile(samples, 0.5);
}

/// Largest cache of cpu0 as sysfs reports it (the LLC), in bytes.
std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text)) continue;
    std::size_t value = std::stoul(text);
    if (text.back() == 'K') value <<= 10;
    if (text.back() == 'M') value <<= 20;
    best = std::max(best, value);
  }
  // No sysfs cache information: assume a 32 MiB LLC.
  return best > 0 ? best : std::size_t{32} << 20;
}

/// One-core peak: independent FMA chains on the widest vector lanes.
double fma_peak_gflops() {
  constexpr int kChains = 16;  // > FMA latency x ports on current cores
  constexpr long kIters = 1L << 24;
  volatile double seed_a = 0.999999999;
  volatile double seed_b = 1e-9;
  Lane a;
  Lane b;
  for (std::size_t l = 0; l < kLaneDoubles; ++l) {
    a[l] = seed_a;
    b[l] = seed_b;
  }
  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    Lane acc[kChains];
    for (int j = 0; j < kChains; ++j) acc[j] = a + static_cast<double>(j);
    const Stopwatch wall;
    for (long it = 0; it < kIters; ++it) {
      for (int j = 0; j < kChains; ++j) acc[j] = acc[j] * a + b;
    }
    const double seconds = wall.elapsed_s();
    volatile double sink = 0.0;
    for (int j = 0; j < kChains; ++j) sink = sink + acc[j][0];
    best = std::max(best, 2.0 * kChains * kLaneDoubles * kIters / seconds);
  }
  return best / 1e9;
}

/// Best-of-3 read bandwidth over `data` (already first-touched).
double read_gbs(const std::vector<double>& data) {
  const std::size_t lanes = data.size() / kLaneDoubles / 4 * 4;
  const Lane* p = reinterpret_cast<const Lane*>(data.data());
  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    Lane s0 = {};
    Lane s1 = {};
    Lane s2 = {};
    Lane s3 = {};
    const Stopwatch wall;
    for (std::size_t i = 0; i < lanes; i += 4) {
      s0 += p[i];
      s1 += p[i + 1];
      s2 += p[i + 2];
      s3 += p[i + 3];
    }
    const double seconds = wall.elapsed_s();
    volatile double sink = (s0 + s1 + s2 + s3)[0];
    (void)sink;
    best = std::max(best, static_cast<double>(lanes * sizeof(Lane)) / seconds);
  }
  return best / 1e9;
}

/// Computed bytes of one CSR SpMV: value + index per entry, row pointer,
/// one x read and one y write per row (contiguous-column families).
double spmv_bytes(const sparse::CsrMatrix& a) {
  return 12.0 * static_cast<double>(a.nnz()) +
         24.0 * static_cast<double>(a.rows);
}

/// 5-point stencil CSR on a g x g grid, built directly: the generator costs
/// ~0.7 s per million rows, too slow for a matrix four times the LLC.
sparse::CsrMatrix stencil5(std::size_t g) {
  sparse::CsrMatrix a;
  a.rows = a.cols = g * g;
  a.row_ptr.reserve(a.rows + 1);
  a.col_idx.reserve(5 * a.rows);
  a.values.reserve(5 * a.rows);
  a.row_ptr.push_back(0);
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      const std::size_t r = i * g + j;
      auto put = [&](std::size_t c, double v) {
        a.col_idx.push_back(static_cast<std::uint32_t>(c));
        a.values.push_back(v);
      };
      if (i > 0) put(r - g, -1.0);
      if (j > 0) put(r - 1, -1.0);
      put(r, 5.0);
      if (j + 1 < g) put(r + 1, -1.0);
      if (i + 1 < g) put(r + g, -1.0);
      a.row_ptr.push_back(a.values.size());
    }
  }
  return a;
}

xmpi::RunConfig world(const std::string& machine, int ranks,
                      hw::LoadLayout layout = hw::LoadLayout::kFullLoad) {
  xmpi::RunConfig config;
  config.machine = batch::machine_from_name(machine);
  config.placement = hw::make_placement(ranks, layout, config.machine);
  return config;
}

/// Host seconds per round of `op`, timed by rank 0 between two barriers.
double per_round_s(const xmpi::RunConfig& config, int rounds,
                   const std::function<void(xmpi::Comm&)>& op) {
  double seconds = 0.0;
  xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
    op(comm);  // warm-up round
    comm.barrier();
    const Stopwatch wall;
    for (int r = 0; r < rounds; ++r) op(comm);
    comm.barrier();
    if (comm.rank() == 0) seconds = wall.elapsed_s();
  });
  return seconds / rounds;
}

/// The solver body run_job monitors, without the monitor: what a spec
/// costs inside Runtime::run alone. Rank 0's solution lands in `x`.
struct BareRun {
  double seconds = 0.0;
  xmpi::RunResult result;
  std::vector<double> x;
  int iters = 0;  // cg iterations or mixed refinement sweeps
};

BareRun bare_run(const batch::JobSpec& spec) {
  const xmpi::RunConfig config = world(spec.machine, spec.ranks, spec.layout);
  BareRun out;
  const Stopwatch wall;
  out.result = xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
    std::vector<double> x;
    int iters = 0;
    if (spec.algorithm == Algorithm::kCg) {
      solvers::CgOptions opt;
      opt.kind = spec.matrix;
      opt.n = spec.n;
      opt.seed = spec.seed;
      opt.precond = spec.precond;
      const solvers::CgResult r = solvers::solve_pcg(comm, opt);
      PLIN_CHECK_MSG(r.converged, "cg did not converge");
      x = r.x;
      iters = r.iterations;
    } else if (spec.algorithm == Algorithm::kIme) {
      solvers::ImepOptions opt;
      opt.n = spec.n;
      opt.seed = spec.seed;
      x = solvers::solve_imep(comm, opt).x;
    } else if (spec.precision == perfsim::Precision::kMixed) {
      solvers::GeppMixedOptions opt;
      opt.n = spec.n;
      opt.seed = spec.seed;
      opt.nb = spec.nb;
      const solvers::GeppMixedResult r = solvers::solve_gepp_mixed(comm, opt);
      x = r.x;
      iters = r.iters;
    } else {
      solvers::PdgesvOptions opt;
      opt.n = spec.n;
      opt.seed = spec.seed;
      opt.nb = spec.nb;
      x = solvers::solve_pdgesv(comm, opt).x;
    }
    if (comm.rank() == 0) {
      out.x = std::move(x);
      out.iters = iters;
    }
  });
  out.seconds = wall.elapsed_s();
  return out;
}

/// Scaled residual of `x` against the generated reference system.
double residual(const batch::JobSpec& spec, const std::vector<double>& x) {
  const std::vector<double> b = linalg::generate_rhs(spec.seed, spec.n);
  if (spec.algorithm == Algorithm::kCg) {
    return sparse::scaled_residual(
        sparse::generate_matrix(spec.matrix, spec.seed, spec.n), x, b);
  }
  return linalg::scaled_residual(
      linalg::generate_system_matrix(spec.seed, spec.n).view(), x, b);
}

monitor::JobSpec monitor_spec(const batch::JobSpec& spec) {
  monitor::JobSpec m;
  m.algorithm = spec.algorithm;
  m.n = spec.n;
  m.ranks = spec.ranks;
  m.layout = spec.layout;
  m.seed = spec.seed;
  m.nb = spec.nb;
  m.repetitions = spec.repetitions;
  m.power_cap_w = spec.power_cap_w;
  m.precision = spec.precision;
  m.matrix = spec.matrix;
  m.precond = spec.precond;
  return m;
}

const char* solver_span(const batch::JobSpec& spec) {
  if (spec.algorithm == Algorithm::kCg) return "solvers.pcg";
  if (spec.algorithm == Algorithm::kIme) return "solvers.imep";
  return spec.precision == perfsim::Precision::kMixed ? "solvers.gepp_mixed"
                                                      : "solvers.pdgesv";
}

batch::JobSpec probe_spec(Algorithm algorithm, std::size_t n) {
  batch::JobSpec spec;
  spec.machine = "mini:16x4";
  spec.algorithm = algorithm;
  spec.n = n;
  spec.ranks = 16;
  spec.nb = 32;
  spec.seed = 11;
  spec.repetitions = 1;
  return spec;
}

// ---- probes by layer ---------------------------------------------------------

void roofline(Probes& p, double* peak_gflops, double* stream_gbs) {
  p.span("probe.peak", [&] {
    *peak_gflops = fma_peak_gflops();
    p.add("probe.peak_gflops", *peak_gflops, "GFLOP/s");
  });
  p.span("probe.stream", [&] {
    const std::size_t llc = llc_bytes();
    std::vector<double> data(4 * llc / sizeof(double) + kLaneDoubles * 4, 1.0);
    *stream_gbs = read_gbs(data);
    p.add("probe.stream_gbs", *stream_gbs, "GB/s");
    p.note("probe.llc_mb", static_cast<double>(llc) / 1e6, "MB");
    p.note("probe.stream_array_mb",
           static_cast<double>(data.size() * sizeof(double)) / 1e6, "MB");
  });
}

void linalg_probes(Probes& p, double peak_gflops) {
  p.span("linalg.dgemm", [&] {
    // The trailing update of n=1536 on a 4x4 grid with nb=32.
    const linalg::Matrix a(384, 32, 0.5);
    const linalg::Matrix b(32, 384, 0.25);
    linalg::Matrix c(384, 384, 1.0);
    constexpr int kCalls = 100;
    const double s = median_seconds(5, [&] {
      for (int k = 0; k < kCalls; ++k) {
        linalg::dgemm(-1.0, a.view(), b.view(), 1.0, c.view());
      }
    });
    const double gflops = 2.0 * 384 * 384 * 32 * kCalls / s / 1e9;
    p.add("linalg.dgemm_gflops", gflops, "GFLOP/s");
    p.add("linalg.dgemm_peak_frac", gflops / peak_gflops, "ratio");
  });
  p.span("linalg.dtrsm", [&] {
    // The U-panel solve of the same update: L is nb x nb, B nb x 384. Tiny
    // off-diagonals keep B finite over thousands of in-place solves.
    linalg::Matrix l(32, 32, 1e-6);
    for (std::size_t i = 0; i < 32; ++i) l(i, i) = 1.0;
    linalg::Matrix b(32, 384, 1.0);
    constexpr int kCalls = 400;
    const double s = median_seconds(5, [&] {
      for (int k = 0; k < kCalls; ++k) {
        linalg::dtrsm_lower_unit(l.view(), b.view());
      }
    });
    p.add("linalg.dtrsm_gflops", 32.0 * 32 * 384 * kCalls / s / 1e9,
          "GFLOP/s");
  });
  p.span("linalg.daxpy", [&] {
    const std::size_t n = std::size_t{1} << 20;
    const std::vector<double> x(n, 1e-9);
    std::vector<double> y(n, 1.0);
    constexpr int kCalls = 20;
    const double s = median_seconds(5, [&] {
      for (int k = 0; k < kCalls; ++k) linalg::daxpy(0.5, x, y);
    });
    p.add("linalg.daxpy_gbs", 24.0 * n * kCalls / s / 1e9, "GB/s");
  });
  p.span("linalg.generate", [&] {
    const double s = median_seconds(3, [] {
      const linalg::Matrix a = linalg::generate_system_matrix(5, 1536);
      volatile double sink = a(0, 0);
      (void)sink;
    });
    p.add("linalg.generate_s", s, "s");
  });
}

void sparse_probes(Probes& p, double stream_gbs) {
  using sparse::SparseKind;
  p.span("sparse.generate", [&] {
    std::size_t nnz = 0;
    const double s = median_seconds(3, [&] {
      nnz = sparse::generate_matrix(SparseKind::kStencil5, 5, 1u << 18).nnz();
    });
    p.add("sparse.generate_s_per_mnnz", s / (static_cast<double>(nnz) / 1e6),
          "s/Mnnz");
  });
  p.span("sparse.spmv_cached", [&] {
    // One rank's row block of the sparse workload's stencil5 2^18 on 16
    // ranks: the SpMV each CG iteration runs, cache-resident.
    const std::size_t n = 1u << 18;
    const sparse::CsrMatrix block =
        sparse::generate_rows(SparseKind::kStencil5, 5, n, 0, n / 16);
    const std::vector<double> x(n, 1.0);
    std::vector<double> y(block.rows);
    constexpr int kCalls = 200;
    const double s = median_seconds(5, [&] {
      for (int k = 0; k < kCalls; ++k) sparse::spmv(block, x, y);
    });
    p.add("sparse.spmv_cached_gbs", spmv_bytes(block) * kCalls / s / 1e9,
          "GB/s");
  });
  p.span("sparse.spmv", [&] {
    // CSR plus vectors at least four times the LLC: DRAM-bound.
    const double target = 4.0 * static_cast<double>(llc_bytes());
    const std::size_t g = static_cast<std::size_t>(std::ceil(std::sqrt(
        target / 84.0)));  // ~84 computed bytes per stencil5 row
    const sparse::CsrMatrix a = stencil5(g);
    const std::vector<double> x(a.cols, 1.0);
    std::vector<double> y(a.rows);
    sparse::spmv(a, x, y);  // first touch
    const double s = median_seconds(3, [&] { sparse::spmv(a, x, y); });
    const double gbs = spmv_bytes(a) / s / 1e9;
    p.add("sparse.spmv_gbs", gbs, "GB/s");
    p.add("sparse.spmv_stream_frac", gbs / stream_gbs, "ratio");
    p.check(y[g + 1] == 1.0, "sparse.spmv: wrong stencil row sum");
  });
}

void xmpi_probes(Probes& p) {
  const xmpi::RunConfig p576 = world("mini:72x4", 576);
  const xmpi::RunConfig p144 = world("mini:72x4", 144);
  const xmpi::RunConfig p16 = world("mini:16x4", 16);
  p.span("xmpi.spawn", [&] {
    const double s = median_seconds(5, [&] {
      xmpi::Runtime::run(p576, [](xmpi::Comm&) {});
    });
    p.add("xmpi.spawn_us_per_rank", s / 576 * 1e6, "us");
  });
  p.span("xmpi.barrier", [&] {
    p.add("xmpi.barrier_us",
          per_round_s(p576, 50, [](xmpi::Comm& comm) { comm.barrier(); }) *
              1e6,
          "us");
  });
  p.span("xmpi.allreduce", [&] {
    p.add("xmpi.allreduce8_us",
          per_round_s(p576, 50,
                      [](xmpi::Comm& comm) {
                        const double in[8] = {1, 2, 3, 4, 5, 6, 7, 8};
                        double out[8];
                        comm.allreduce(std::span<const double>(in),
                                       std::span<double>(out),
                                       xmpi::ReduceOp::kSum);
                      }) *
              1e6,
          "us");
  });
  p.span("xmpi.halo", [&] {
    p.add("xmpi.halo_us",
          per_round_s(p144, 50,
                      [](xmpi::Comm& comm) {
                        const int left = (comm.rank() + comm.size() - 1) %
                                         comm.size();
                        const int right = (comm.rank() + 1) % comm.size();
                        std::vector<double> send(128, 1.0);
                        std::vector<double> from_left(128);
                        std::vector<double> from_right(128);
                        xmpi::Request requests[4] = {
                            comm.irecv(std::span<double>(from_left), left, 7),
                            comm.irecv(std::span<double>(from_right), right, 8),
                            comm.isend(std::span<const double>(send), right, 7),
                            comm.isend(std::span<const double>(send), left, 8)};
                        xmpi::wait_all(requests);
                      }) *
              1e6,
          "us");
  });
  p.span("xmpi.bcast", [&] {
    p.add("xmpi.bcast1m_ms",
          per_round_s(p16, 10,
                      [](xmpi::Comm& comm) {
                        std::vector<double> data(131072, 1.0);
                        comm.bcast(std::span<double>(data), 0);
                      }) *
              1e3,
          "ms");
  });
}

void solver_probes(Probes& p) {
  struct Case {
    const char* span;
    const char* metric;
    batch::JobSpec spec;
  };
  batch::JobSpec mixed = probe_spec(Algorithm::kScalapack, 1536);
  mixed.precision = perfsim::Precision::kMixed;
  batch::JobSpec pcg = probe_spec(Algorithm::kCg, 1u << 18);
  pcg.matrix = sparse::SparseKind::kStencil5;
  const Case cases[] = {
      {"solvers.pdgesv", "solvers.pdgesv_s",
       probe_spec(Algorithm::kScalapack, 1536)},
      {"solvers.gepp_mixed", "solvers.gepp_mixed_s", mixed},
      {"solvers.imep", "solvers.imep_s", probe_spec(Algorithm::kIme, 1536)},
      {"solvers.pcg", "solvers.pcg_s", pcg}};
  for (const Case& c : cases) {
    p.span(c.span, [&] {
      std::vector<double> samples;
      BareRun last;
      for (int r = 0; r < 3; ++r) {
        last = bare_run(c.spec);
        samples.push_back(last.seconds);
      }
      p.add(c.metric, quantile(samples, 0.5), "s");
      const double bound =
          c.spec.precision == perfsim::Precision::kMixed ? 1e-9 : 1e-10;
      p.check(residual(c.spec, last.x) < bound,
              std::string(c.span) + ": residual above bound");
      if (c.spec.algorithm == Algorithm::kCg) {
        p.add("solvers.cg_iters", last.iters, "count", "none");
      } else if (c.spec.precision == perfsim::Precision::kMixed) {
        p.add("solvers.refine_iters", last.iters, "count", "none");
      }
    });
  }
  p.span("solvers.seq_gepp", [&] {
    // Single-threaded baseline of pdgesv: the blocked sequential LU.
    const batch::JobSpec spec = probe_spec(Algorithm::kScalapack, 1536);
    linalg::Matrix a = linalg::generate_system_matrix(spec.seed, spec.n);
    const std::vector<double> b = linalg::generate_rhs(spec.seed, spec.n);
    std::vector<std::size_t> pivots;
    const Stopwatch wall;
    solvers::lu_factor_blocked(a, pivots, spec.nb);
    const std::vector<double> x = solvers::lu_solve(a, pivots, b);
    p.add("solvers.seq_gepp_s", wall.elapsed_s(), "s");
    p.check(residual(spec, x) < 1e-10, "solvers.seq_gepp: residual");
  });
  p.span("solvers.seq_cg", [&] {
    const sparse::CsrMatrix a =
        sparse::generate_matrix(sparse::SparseKind::kStencil5, 11, 1u << 18);
    const std::vector<double> b = linalg::generate_rhs(11, 1u << 18);
    const Stopwatch wall;
    const solvers::CgResult r = solvers::solve_cg(a, b, 1e-11, 1000);
    p.add("solvers.seq_cg_s", wall.elapsed_s(), "s");
    p.check(r.converged, "solvers.seq_cg: not converged");
  });
}

/// Rounds of the decomposition per template.
constexpr int kDecomposeRounds = 3;

/// Half the range of `samples`: the spread reported beside a median of
/// kDecomposeRounds values.
double half_range(const std::vector<double>& samples) {
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  return (*hi - *lo) / 2.0;
}

/// execute_job -> run_job -> (reference generation, bare solver -> empty
/// spawn), one template at a time. A remainder is a difference between
/// separate calls, not a nested measurement, so each template runs
/// kDecomposeRounds rounds of all five calls back to back (a drift of host
/// speed lands on every stage of a round alike), and a remainder is the
/// median over the rounds of that round's parent minus its children.
/// Means over the templates; the spreads of the remainders are notes.
void decompose(Probes& p, const std::vector<batch::JobSpec>& templates) {
  SpanLog& log = p.log();
  double run_s = 0.0;
  double monitor_rest_s = 0.0;
  double batch_rest_s = 0.0;
  double monitor_spread_s = 0.0;
  double batch_spread_s = 0.0;
  double parks = 0.0;
  double msgs = 0.0;
  double bytes = 0.0;
  double pool_hits = 0.0;
  double pool_acquires = 0.0;
  std::size_t k = 0;
  std::size_t bare_runs = 0;
  for (batch::JobSpec spec : templates) {
    spec.seed = 31 + k;
    const std::string job = "template" + std::to_string(k++);
    // Each span covers only its own call; its children are the calls that
    // re-execute its work one layer down.
    auto timed = [&](const char* name, SpanLog::Id parent, auto&& body) {
      const Scope scope(&log, name, parent, job);
      body();
      return scope.id();
    };
    std::vector<double> run_job_s;
    std::vector<double> monitor_rest;
    std::vector<double> batch_rest;
    try {
      for (int round = 0; round < kDecomposeRounds; ++round) {
        batch::JobRecord record;
        const SpanLog::Id execute = timed("batch.execute_job", p.root, [&] {
          record = batch::execute_job(spec);
        });
        monitor::JobResult result;
        const SpanLog::Id run = timed("monitor.run_job", execute, [&] {
          result = monitor::run_job(batch::machine_from_name(spec.machine),
                                    monitor_spec(spec));
        });
        // The reference system run_job builds for its residual check.
        const SpanLog::Id reference = timed("monitor.reference", run, [&] {
          (void)linalg::generate_rhs(spec.seed, spec.n);
          if (spec.algorithm == Algorithm::kCg) {
            (void)sparse::generate_matrix(spec.matrix, spec.seed, spec.n);
          } else {
            (void)linalg::generate_system_matrix(spec.seed, spec.n);
          }
        });
        BareRun bare;
        const SpanLog::Id solve =
            timed(solver_span(spec), run, [&] { bare = bare_run(spec); });
        const xmpi::RunConfig config =
            world(spec.machine, spec.ranks, spec.layout);
        timed("xmpi.spawn", solve,
              [&] { xmpi::Runtime::run(config, [](xmpi::Comm&) {}); });

        run_job_s.push_back(log.seconds(run));
        monitor_rest.push_back(log.seconds(run) - log.seconds(reference) -
                               log.seconds(solve));
        batch_rest.push_back(log.seconds(execute) - log.seconds(run));
        ++bare_runs;
        parks += static_cast<double>(bare.result.host_parks);
        const xmpi::TrafficCounters& t = bare.result.traffic;
        msgs += static_cast<double>(t.data_messages + t.control_messages);
        bytes += static_cast<double>(t.data_bytes + t.control_bytes);
        pool_hits += static_cast<double>(bare.result.transport.pool.hits);
        pool_acquires +=
            static_cast<double>(bare.result.transport.pool.acquires());

        verify_record(record, spec);
        p.check(virtual_outputs(record).duration_s ==
                    result.repetitions.front().measurement.duration_s,
                job + ": execute_job and run_job disagree");
        if (round == 0) {
          p.check(residual(spec, bare.x) < 1e-9,
                  job + ": bare solver residual");
        }
      }
      run_s += quantile(run_job_s, 0.5);
      monitor_rest_s += quantile(monitor_rest, 0.5);
      batch_rest_s += quantile(batch_rest, 0.5);
      monitor_spread_s += half_range(monitor_rest);
      batch_spread_s += half_range(batch_rest);
    } catch (const std::exception& e) {
      p.check(false, job + ": " + e.what());
    }
  }
  const double jobs = static_cast<double>(std::max<std::size_t>(k, 1));
  const double runs = static_cast<double>(std::max<std::size_t>(bare_runs, 1));
  p.add("monitor.run_job_s", run_s / jobs, "s");
  p.add("monitor.unattributed_s", monitor_rest_s / jobs, "s");
  p.add("batch.execute_unattributed_s", batch_rest_s / jobs, "s");
  p.note("monitor.unattributed_spread_s", monitor_spread_s / jobs, "s",
         "host_s");
  p.note("batch.execute_unattributed_spread_s", batch_spread_s / jobs, "s",
         "host_s");
  p.add("xmpi.parks_per_job", parks / runs, "count", "none");
  p.add("xmpi.msgs_per_job", msgs / runs, "count", "none");
  p.add("xmpi.bytes_per_job", bytes / runs, "bytes", "none");
  p.add("xmpi.pool_hit_ratio",
        pool_acquires > 0.0 ? pool_hits / pool_acquires : 0.0, "ratio",
        "none");
}

std::vector<batch::JobRecord> perfsim_probes(Probes& p) {
  std::vector<batch::JobRecord> records;
  p.span("perfsim.predict", [&] {
    std::vector<double> ms;
    for (const batch::JobSpec& spec : paper_grid(1)) {
      const Stopwatch wall;
      records.push_back(batch::execute_job(spec));
      ms.push_back(wall.elapsed_s() * 1e3);
      verify_record(records.back(), spec);
    }
    double sum = 0.0;
    for (double v : ms) sum += v;
    p.add("perfsim.predict_ms", sum / static_cast<double>(ms.size()), "ms");
    p.add("perfsim.predict_max_ms", *std::max_element(ms.begin(), ms.end()),
          "ms");
  });
  return records;
}

void batch_probes(Probes& p, const std::vector<batch::JobRecord>& grid,
                  const std::string& work_dir) {
  if (grid.empty()) return;
  constexpr std::size_t kRecords = 10000;
  constexpr std::uint64_t kFirstSeed = 1000000000;
  const std::string dir = work_dir + "/probe_store";
  fs::remove_all(dir);
  fs::create_directories(dir);
  write_replay_journal(dir + "/journal.jsonl", kRecords, kFirstSeed, grid);
  std::vector<batch::JobSpec> specs;
  std::vector<std::string> keys;
  for (std::size_t k = 0; k < kRecords; ++k) {
    specs.push_back(grid[k % grid.size()].spec);
    specs.back().seed = kFirstSeed + k;
    keys.push_back(specs.back().key());
  }
  p.span("batch.open", [&] {
    std::size_t size = 0;
    const double s = median_seconds(3, [&] {
      const batch::ResultStore store(dir);
      size = store.size();
    });
    p.add("batch.open_s_per_10k", s * 10000.0 / kRecords, "s");
    p.check(size == kRecords, "batch.open: journal replay lost records");
  });
  batch::ResultStore store(dir);
  p.span("batch.probe", [&] {
    std::size_t hits = 0;
    const Stopwatch wall;
    for (const std::string& key : keys) hits += store.probe(key) ? 1 : 0;
    p.add("batch.probe_us", wall.elapsed_s() / kRecords * 1e6, "us");
    p.check(hits == kRecords, "batch.probe: missing keys");
  });
  p.span("batch.report", [&] {
    const double s = median_seconds(3, [&] {
      const std::vector<batch::JobRecord> records =
          batch::collect_records(specs, store);
      std::ofstream csv(dir + "/report.csv", std::ios::trunc);
      batch::write_report_csv(csv, records);
      std::ofstream markdown(dir + "/report.md", std::ios::trunc);
      batch::write_report_markdown(markdown, records);
    });
    p.add("batch.report_s", s, "s");
  });
  p.span("batch.put", [&] {
    constexpr std::size_t kPuts = 200;
    const Stopwatch wall;
    for (std::size_t k = 0; k < kPuts; ++k) {
      batch::JobRecord record = grid[k % grid.size()];
      record.spec.seed = kFirstSeed + kRecords + k;
      store.put(record);
    }
    p.add("batch.put_ms", wall.elapsed_s() / kPuts * 1e3, "ms");
  });
}

void serve_probes(Probes& p, const std::string& work_dir) {
  p.span("serve.unloaded", [&] {
    const std::string dir = work_dir + "/probe_serve";
    fs::remove_all(dir);
    ServeInstance daemon(dir, serve::EngineOptions{}, 1);
    serve::Client& client = *daemon.clients.front();
    std::vector<batch::JobSpec> specs;
    for (std::size_t i = 0; i < 16; ++i) {
      batch::JobSpec spec = probe_spec(
          i % 2 == 0 ? Algorithm::kScalapack : Algorithm::kIme, 256);
      spec.ranks = 8;
      spec.seed = 500 + i;
      specs.push_back(spec);
    }
    auto submit = [&](const batch::JobSpec& spec, const char* status) {
      const Stopwatch wall;
      const json::Value response = client.submit(spec, "probe", true);
      const double s = wall.elapsed_s();
      p.check(response.at("ok").as_bool() &&
                  response.at("status").as_string() == status,
              "serve probe: unexpected response");
      return s;
    };
    std::vector<double> cold_s;
    std::vector<double> hit_s;
    std::vector<double> engine_s;
    for (const batch::JobSpec& spec : specs) {
      cold_s.push_back(submit(spec, "done"));
    }
    for (int round = 0; round < 10; ++round) {
      for (const batch::JobSpec& spec : specs) {
        hit_s.push_back(submit(spec, "cached"));
        const Stopwatch wall;
        const serve::SubmitStatus status = daemon.engine.submit("probe", spec);
        const serve::JobOutcome outcome = daemon.engine.wait(spec.key());
        engine_s.push_back(wall.elapsed_s());
        p.check(status == serve::SubmitStatus::kCached && outcome.ok,
                "serve probe: engine hit");
      }
    }
    const double hit_ms = quantile(hit_s, 0.5) * 1e3;
    const double engine_us = quantile(engine_s, 0.5) * 1e6;
    p.add("serve.hit_p50_ms", hit_ms, "ms");
    p.add("serve.cold_p50_ms", quantile(cold_s, 0.5) * 1e3, "ms");
    p.add("serve.engine_hit_us", engine_us, "us");
    p.add("serve.wire_us", hit_ms * 1e3 - engine_us, "us");
  });
}

void prof_probes(Probes& p, const std::string& work_dir) {
  p.span("prof.traced_job", [&] {
    batch::JobSpec cg = probe_spec(Algorithm::kCg, 1u << 16);
    cg.matrix = sparse::SparseKind::kStencil5;
    double plain_s = 0.0;
    double traced_s = 0.0;
    for (const batch::JobSpec& spec :
         {probe_spec(Algorithm::kScalapack, 1024), cg}) {
      batch::JobRecord plain;
      batch::JobRecord traced;
      plain_s += median_seconds(3, [&] { plain = batch::execute_job(spec); });
      const std::string dir = work_dir + "/prof_trace";
      traced_s += median_seconds(
          3, [&] { traced = batch::execute_job(spec, dir); });
      fs::remove_all(dir);
      p.check(virtual_outputs(plain).matches(virtual_outputs(traced)),
              "prof: tracing changed simulated outputs");
    }
    p.add("prof.traced_job_ratio", traced_s / plain_s, "ratio");
  });
}

}  // namespace

std::vector<Metric> run_layer_probes(
    const std::vector<batch::JobSpec>& templates, const std::string& work_dir,
    SpanLog& log, PhaseResult& checks, std::vector<Metric>& notes) {
  Probes p(log, checks);
  {
    // Logical parents: a span's children re-execute its work one layer
    // down, so the root's self time is the cost of those re-executions.
    const Scope root(&log, "bench.decompose");
    p.root = root.id();
    decompose(p, templates);
  }
  // The fixed probes run alike on every workload.
  ::setenv("PLIN_XMPI_WORKERS", "4", 1);
  const Scope root(&log, "bench.probes");
  p.root = root.id();
  double peak_gflops = 0.0;
  double stream_gbs = 0.0;
  roofline(p, &peak_gflops, &stream_gbs);
  linalg_probes(p, peak_gflops);
  sparse_probes(p, stream_gbs);
  xmpi_probes(p);
  solver_probes(p);
  batch_probes(p, perfsim_probes(p), work_dir);
  serve_probes(p, work_dir);
  prof_probes(p, work_dir);
  notes.insert(notes.end(), p.notes.begin(), p.notes.end());
  return std::move(p.metrics);
}

}  // namespace plin::e2e
