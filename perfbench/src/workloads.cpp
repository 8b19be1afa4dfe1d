#include "workloads.hpp"

#include <filesystem>

namespace perfbench {

RunReport run_workload(const RunOptions& options) {
  std::filesystem::create_directories(options.work_dir);
  RunReport report = options.workload == Workload::kServeWarm
                         ? run_serve_workload(options)
                         : run_sweep_workload(options);
  std::filesystem::remove_all(options.work_dir);
  return report;
}

}  // namespace perfbench
