// Figure, table and ablation text generators behind `campaign --figures`.
//
// Each function returns the exact console text of one item of the paper's
// evaluation (Section 6) or of one ablation (DESIGN.md §3). Per-item work
// (one application, one buffer size) of the figures and ablations dispatches
// through opec_campaign::ParallelMap: `jobs <= 1` is the inline serial path,
// `jobs > 1` fans out over its worker threads — results are assembled in
// item order either way, so the returned text does not depend on the thread
// count. The tables run serially.

#ifndef BENCH_FIGURES_LIB_H_
#define BENCH_FIGURES_LIB_H_

#include <string>

namespace opec_bench {

// Figure 9: runtime, Flash and SRAM overhead of OPEC vs the vanilla baseline
// for every application. Runtime overhead is the extra DWT cycle count;
// Flash/SRAM overheads are the image-size increase relative to the board's
// capacity (the paper's methodology, Section 6.3).
std::string Figure9Text(int jobs);
// Figure 10: the cumulative distribution of the partition-time over-privilege
// value (PT, Eq. 1) per compartment for the five applications ACES also
// evaluated, under the three ACES strategies. OPEC's PT is computed too — the
// shadowing technique makes it identically zero.
std::string Figure10Text(int jobs);
// Figure 11: the execution-time over-privilege value (ET, Eq. 2) per task, for
// OPEC and the three ACES strategies, over the five shared applications.
// Tasks are the operation windows of a traced OPEC run (the paper's GDB
// single-stepping stand-in); under ACES a task's needed set is everything
// accessible to the compartments its execution flowed through.
std::string Figure11Text(int jobs);
// Table 1: the security-evaluation metrics for every application under OPEC —
// number of operations, average functions per operation, privileged code size
// (vs the all-privileged baseline), and the average accessible global-variable
// bytes per operation (vs the baseline where every global is accessible
// everywhere).
std::string Table1Text();
// Table 2: runtime ratio (RO, x), Flash overhead (FO, %), SRAM overhead (SO, %)
// and privileged application code (PAC, %) for OPEC vs the three ACES
// strategies, over the five shared applications.
std::string Table2Text();
// Table 3: efficiency of the indirect-call analysis — number of icalls, how
// many the points-to analysis (the SVF stand-in) resolves, solve time, how
// many fall back to type-based matching, and the average/maximum target
// counts. The solve-time column is host time, the only text here that varies
// from run to run.
std::string Table3Text();
// Ablation (DESIGN.md §3.1): the cost of global-data shadowing as the shared
// state grows. A synthetic two-operation program shares one buffer of size N;
// the text reports the guest-cycle cost of one enter+exit switch pair, which
// is dominated by the shadow synchronization (4 copies of the buffer per
// pair: write-back + copy-in on enter, and again on exit).
std::string AblationShadowSyncText(int jobs);
// Ablation (DESIGN.md §3.2): operation-granularity partitioning follows the
// control flow, so domain switches happen only at entry/exit of tasks —
// file-granularity (ACES) partitioning switches on every cross-file call.
// Reports the domain-switch count per scenario for each application.
std::string AblationSwitchFrequencyText(int jobs);

}  // namespace opec_bench

#endif  // BENCH_FIGURES_LIB_H_
