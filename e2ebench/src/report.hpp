// Result output: the host fingerprint, the per-run result file and the
// final stdout line {"correct", "attempted", "failed", "metrics"}.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace bench {

struct Host {
  int nproc = 0;
  std::string cpu;
  std::string compiler;
  std::string buildType;
  std::string commit;      // passed in by run.py ("unknown" outside git)
  std::string sourceHash;  // digest of the BREW sources, from run.py
};
Host hostFingerprint(std::string commit, std::string sourceHash);

// brew_telemetry_snapshot() as a JSON object.
std::string telemetrySnapshotJson();

// The full result of one run (host, metrics, details, spans, self times,
// telemetry) as one JSON document.
bool writeResultFile(const std::string& path, const RunContext& ctx,
                     const Host& host, const Outcome& outcome);

// Human-readable summary on stdout, then the final JSON line.
void printOutcome(const RunContext& ctx, const Host& host,
                  const Outcome& outcome);

}  // namespace bench
