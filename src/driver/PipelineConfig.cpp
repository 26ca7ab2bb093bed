//===- PipelineConfig.cpp - Pipeline configuration ------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "driver/PipelineConfig.h"

#include "support/Hash.h"
#include "summary/Summary.h"

#include <charconv>
#include <sstream>

using namespace ipra;

namespace {

/// The shortest text that reads back as exactly \p V, so two distinct
/// thresholds never share a fingerprint ("0.2" and "1" for the shipped
/// defaults, as the stream's six digits printed them).
std::string shortest(double V) {
  char Buf[32];
  return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

} // namespace

PipelineConfig PipelineConfig::baseline() { return PipelineConfig(); }

PipelineConfig PipelineConfig::configA() {
  PipelineConfig C;
  C.setAnalyzerOptions(AnalyzerOptions::columnA());
  return C;
}

PipelineConfig PipelineConfig::configB() {
  PipelineConfig C = configA();
  C.UseProfile = true;
  return C;
}

PipelineConfig PipelineConfig::configC() {
  PipelineConfig C;
  C.setAnalyzerOptions(AnalyzerOptions::columnC());
  return C;
}

PipelineConfig PipelineConfig::configD() {
  PipelineConfig C;
  C.setAnalyzerOptions(AnalyzerOptions::columnD());
  return C;
}

PipelineConfig PipelineConfig::configE() {
  PipelineConfig C;
  C.setAnalyzerOptions(AnalyzerOptions::columnE());
  return C;
}

PipelineConfig PipelineConfig::configF() {
  PipelineConfig C = configC();
  C.UseProfile = true;
  return C;
}

CompileOptions PipelineConfig::compileOptions() const {
  CompileOptions O;
  O.LocalGlobalPromotion = LocalGlobalPromotion;
  O.LinkerReservedRegs = LinkerReservedRegs;
  O.CallerSavePropagation = CallerSavePropagation;
  O.PointsTo = PointsTo;
  return O;
}

void PipelineConfig::setCompileOptions(const CompileOptions &O) {
  LocalGlobalPromotion = O.LocalGlobalPromotion;
  LinkerReservedRegs = O.LinkerReservedRegs;
  CallerSavePropagation = O.CallerSavePropagation;
  PointsTo = O.PointsTo;
}

AnalyzerOptions PipelineConfig::analyzerOptions() const {
  AnalyzerOptions O;
  O.SpillMotion = SpillMotion;
  O.Promotion = Promotion;
  O.WebPool = WebPool;
  O.BlanketCount = BlanketCount;
  O.Webs = Webs;
  O.Clusters = Clusters;
  O.RegSets.RelaxWebAvail = RelaxWebAvail;
  O.RegSets.ImprovedFreeSets = ImprovedFreeSets;
  O.CallerSavePropagation = CallerSavePropagation;
  O.AssumeClosedWorld = AssumeClosedWorld;
  O.PointsTo = PointsTo;
  O.ModRef = ModRef;
  // The analyzer's parallel stages reuse the pipeline thread count.
  // NumThreads stays out of every fingerprint (the database is
  // byte-identical at any value).
  O.NumThreads = NumThreads;
  return O;
}

void PipelineConfig::setAnalyzerOptions(const AnalyzerOptions &O) {
  Ipra = true;
  SpillMotion = O.SpillMotion;
  Promotion = O.Promotion;
  WebPool = O.WebPool;
  BlanketCount = O.BlanketCount;
  Webs = O.Webs;
  Clusters = O.Clusters;
  RelaxWebAvail = O.RegSets.RelaxWebAvail;
  ImprovedFreeSets = O.RegSets.ImprovedFreeSets;
  CallerSavePropagation = O.CallerSavePropagation;
  AssumeClosedWorld = O.AssumeClosedWorld;
  PointsTo = O.PointsTo;
  ModRef = O.ModRef;
}

//===----------------------------------------------------------------------===//
// Fingerprints. Every semantically relevant knob is rendered into a
// key=value text and hashed; the artifact format versions are folded in
// so a format bump invalidates every cached artifact.
//===----------------------------------------------------------------------===//

std::string CompileOptions::fingerprint() const {
  std::ostringstream OS;
  OS << "sumfmt=" << SummaryFormatVersion << ";objfmt=1"
     << ";lgp=" << LocalGlobalPromotion << ";lrr=" << std::hex
     << LinkerReservedRegs << std::dec << ";csp=" << CallerSavePropagation
     << ";pt=" << static_cast<int>(PointsTo);
  return hashHex(OS.str());
}

std::string PipelineConfig::compileFingerprint() const {
  return compileOptions().fingerprint();
}

std::string PipelineConfig::analyzerFingerprint() const {
  std::ostringstream OS;
  OS << "dbfmt=" << DatabaseFormatVersion << ";ipra=" << Ipra
     << ";sm=" << SpillMotion
     << ";promo=" << static_cast<int>(Promotion) << ";pool=" << std::hex
     << WebPool << std::dec << ";blanket=" << BlanketCount
     << ";profile=" << UseProfile << ";relax=" << RelaxWebAvail
     << ";freesets=" << ImprovedFreeSets << ";csp=" << CallerSavePropagation
     << ";closed=" << AssumeClosedWorld
     << ";pt=" << static_cast<int>(PointsTo) << ";modref=" << ModRef
     << ";web.lref=" << shortest(Webs.MinLRefRatio)
     << ";web.minfreq=" << Webs.MinSingleNodeFreq
     << ";web.xstatic=" << Webs.DiscardCrossModuleStaticWebs
     << ";web.split=" << Webs.SplitSparseWebs
     << ";web.remerge=" << Webs.RemergeWebs
     << ";cluster.thresh=" << shortest(Clusters.RootBenefitThreshold);
  return hashHex(OS.str());
}

std::string PipelineConfig::fingerprint() const {
  return hashParts({compileFingerprint(), analyzerFingerprint()});
}
