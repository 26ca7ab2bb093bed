//===- PipelineStats.cpp - Pipeline timing instrumentation ----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "driver/PipelineStats.h"

#include "core/DeltaAnalyzer.h"

#include <iomanip>
#include <sstream>

using namespace ipra;

std::string PipelineStats::toString(const AnalyzerStats &A,
                                   const DeltaStats &D) const {
  std::ostringstream OS;
  OS << std::fixed << std::setprecision(2);
  OS << "pipeline: threads=" << ThreadsUsed << " total=" << TotalMs
     << "ms\n";
  OS << "  frontend=" << FrontEndMs << "ms phase1=" << Phase1Ms
     << "ms analyzer=" << AnalyzerMs << "ms phase2=" << Phase2Ms
     << "ms link=" << LinkMs << "ms\n";
  if (!AnalyzerMode.empty() ||
      A.RefSetsMs + A.WebsMs + A.ColoringMs + A.ClustersMs + A.RegSetsMs >
          0) {
    OS << "  analyzer phases";
    if (!AnalyzerMode.empty())
      OS << " (" << AnalyzerMode << ")";
    OS << ": refsets=" << A.RefSetsMs << "ms webs=" << A.WebsMs
       << "ms coloring=" << A.ColoringMs << "ms clusters=" << A.ClustersMs
       << "ms regsets=" << A.RegSetsMs << "ms\n";
  }
  if (AnalyzerMode == "delta")
    OS << "  delta: changed-procs=" << D.ChangedProcs
       << " damaged-sccs=" << D.DamagedSccs << "/" << D.TotalSccs
       << " damaged-globals=" << D.DamagedGlobals << "/" << D.TotalGlobals
       << " web-reuse=" << D.reuseRatio() * 100.0 << "%\n";
  else if (!D.FallbackReason.empty())
    OS << "  delta: full re-analysis (" << D.FallbackReason << ")\n";
  if (PointsToConstraints + PointsToIterations > 0 || PointsToMs > 0)
    OS << "  points-to: constraints=" << PointsToConstraints
       << " iterations=" << PointsToIterations
       << " escapes-refuted=" << A.EscapesRefuted
       << " indirect-resolved=" << A.IndirectCallersResolved
       << " time=" << PointsToMs << "ms\n";
  if (A.ReadOnlyGlobals + A.WriteOnlyGlobals + A.DeadGlobals +
              A.UninitReadGlobals + A.DeadProcs >
          0 ||
      A.ModRefMs > 0)
    OS << "  modref: read-only=" << A.ReadOnlyGlobals
       << " write-only=" << A.WriteOnlyGlobals
       << " dead-globals=" << A.DeadGlobals
       << " uninit-read=" << A.UninitReadGlobals
       << " dead-procs=" << A.DeadProcs << " time=" << A.ModRefMs
       << "ms\n";
  if (GPGUpdates + GPGCallSites + A.GPG.ComposedProcs > 0)
    OS << "  gpg: updates=" << GPGUpdates << " call-sites=" << GPGCallSites
       << " composed-procs=" << A.GPG.ComposedProcs
       << " contexts=" << A.GPG.Contexts
       << " refuted-beyond-andersen=" << A.GPG.RefutedBeyondAndersen
       << " resolved-beyond-andersen=" << A.GPG.ResolvedBeyondAndersen
       << "\n";
  if (OptRounds + RegAllocRounds > 0)
    OS << "  work: opt-rounds=" << OptRounds
       << " opt-pass-runs=" << OptPassRuns
       << " opt-pass-changes=" << OptPassChanges
       << " regalloc-rounds=" << RegAllocRounds
       << " spilled-vregs=" << SpilledVRegs << "\n";
  OS << "  summaries=" << SummaryBytes << "B database=" << DatabaseBytes
     << "B objects=" << ObjectBytes << "B\n";
  if (Phase1CacheHits + Phase1CacheMisses + AnalyzerCacheHits +
          AnalyzerCacheMisses + Phase2CacheHits + Phase2CacheMisses >
      0)
    OS << "  cache: phase1 " << Phase1CacheHits << "/"
       << (Phase1CacheHits + Phase1CacheMisses) << " analyzer "
       << AnalyzerCacheHits << "/"
       << (AnalyzerCacheHits + AnalyzerCacheMisses) << " phase2 "
       << Phase2CacheHits << "/" << (Phase2CacheHits + Phase2CacheMisses)
       << " hits, saved=" << CacheBytesSaved << "B\n";
  if (Cache.PeakMemBytes > 0)
    OS << "  cache-mem: resident=" << Cache.MemBytes
       << "B peak=" << Cache.PeakMemBytes << "B evicted=" << Cache.Evictions
       << " (" << Cache.EvictedBytes << "B) disk-evicted="
       << Cache.DiskEvictions << "\n";
  for (const ModulePipelineStats &M : Modules)
    OS << "  module " << M.Name << ": funcs=" << M.Functions
       << " frontend=" << M.FrontEndMs << "ms phase1=" << M.Phase1Ms
       << "ms phase2=" << M.Phase2Ms << "ms summary=" << M.SummaryBytes
       << "B object=" << M.ObjectBytes << "B"
       << (M.Phase1FromCache ? " phase1-cached" : "")
       << (M.Phase2FromCache ? " phase2-cached" : "") << "\n";
  return OS.str();
}
