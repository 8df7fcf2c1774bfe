#pragma once
// The three workloads and the per-layer probes they share.
//
// End-to-end passes (--trace 0) time whole operations only: one
// driver::run_layout call from GFA path to published .lay, or one serve
// job from its due time to its terminal state. The traced pass (--trace 1)
// times the calls the benchmark makes into each module's public functions
// and records them as spans (trace.hpp).
#include <cstdint>
#include <string>

#include "common.hpp"
#include "core/config.hpp"
#include "core/layout.hpp"
#include "driver/driver.hpp"
#include "graph/lean_graph.hpp"

namespace perfbench {

/// wg-bp-ml.
Outcome run_layout_workload(const Options& opt);
/// serve-mix.
Outcome run_serve_workload(const Options& opt);

// --- layer probes (traced pass) -------------------------------------------

/// graph.ingest_s, graph.ingest_mb_per_s (io::load_graph_file on `gfa`) and
/// io.pgg_read_s (io::read_pgg_file on `pgg`), medians of three.
void probe_ingest(const std::string& gfa, const std::string& pgg, Metrics& m);

/// io.lay_write_s: io::write_layout_file of `layout`, median of three.
void probe_lay_write(const pgl::core::Layout& layout, const std::string& path,
                     Metrics& m);

/// core.sampling.{ns_per_term,valid_frac} (single-threaded
/// PairSampler::fill_batch_staged over both branches) and
/// core.kernels.{scalar,simd}_ns_per_term (UpdateKernel::apply on batches
/// sampled from `g`).
void probe_sampling_and_kernels(const pgl::graph::LeanGraph& g,
                                const pgl::core::LayoutConfig& cfg, bool toy,
                                Metrics& m);

/// mem.gather_{dep,indep}_ns.t{1,4} over an array of `step_bytes` (the
/// graph's 16-byte step records) and mem.gather_dram_indep_ns.t{1,4} over
/// one of at least four times the last-level cache; then
/// core.sampling.ceiling_x from the sampling probe's ns/term.
void probe_memory(std::uint64_t step_bytes, bool toy, Metrics& m);

/// core.pool.dispatch_us: ThreadPool::run of an empty job, 4 workers.
void probe_pool(Metrics& m);

/// core.engine.{run_s,scaling_x,apply_share,skip_frac}: LayoutEngine::run
/// on the preloaded graph at 4 and at 1 thread (`iterations` of the
/// configured schedule; 0 = all of it).
void probe_engine(const pgl::graph::LeanGraph& g, const std::string& backend,
                  pgl::core::LayoutConfig cfg, std::uint32_t iterations,
                  Metrics& m);

/// Sampled path stress (Eq. 2) with the benchmark's fixed metric seed and
/// samples per step. With `m`, also metrics.stress_s and
/// metrics.ns_per_term.
double layout_stress(const pgl::graph::LeanGraph& g, const pgl::core::Layout& l,
                     Metrics* m);

/// One run_layout of `req` (flat, or partitioned and optionally
/// multilevel) with a span around every engine pass and component, then
/// the layer calls the driver makes between them, each timed on its own:
/// core.engine.init_s, multilevel.*, partition.*, and driver.self_s (the
/// traced layout time minus the layer spans it calls; needs graph.ingest_s
/// and io.lay_write_s already in `m`). Adds the run's layout_s as
/// `traced_layout_s`. Returns the published layout's digest.
std::uint64_t layout_breakdown(const pgl::driver::RunRequest& req, Metrics& m);

/// serve.* metrics from a short burst of jobs against one graph: new
/// keys, an in-flight duplicate and repeats of completed keys.
void probe_serve(const std::string& graph, const pgl::core::LayoutConfig& cfg,
                 const std::string& backend, const std::string& dir,
                 Metrics& m);

}  // namespace perfbench
