// Regenerates Figure 9: runtime, Flash and SRAM overhead of OPEC vs the
// vanilla baseline for every application. Runtime overhead is the extra DWT
// cycle count; Flash/SRAM overheads are the image-size increase relative to
// the board's capacity (the paper's methodology, Section 6.3).
//
// The text is produced by opec_bench::Figure9Text (bench/figures_lib.h), the
// same generator the campaign CLI uses; `--jobs N` measures the applications
// concurrently with bit-identical output.

#include <cstdio>

#include "bench/figures_lib.h"

int main(int argc, char** argv) {
  int jobs = opec_bench::ParseJobsFlag(argc, argv);
  std::fputs(opec_bench::Figure9Text(jobs).c_str(), stdout);
  return 0;
}
