//===- PipelineConfig.cpp - Pipeline configuration ------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "driver/PipelineConfig.h"

#include "support/Hash.h"
#include "summary/Summary.h"

#include <sstream>

using namespace ipra;

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

//===----------------------------------------------------------------------===//
// Fingerprints. Every semantically relevant knob is rendered into a
// key=value text and hashed; the artifact format versions are folded in
// so a format bump invalidates every cached artifact.
//===----------------------------------------------------------------------===//

std::string PipelineConfig::compileFingerprint() const {
  std::ostringstream OS;
  OS << "sumfmt=" << SummaryFormatVersion << ";objfmt=1"
     << ";lgp=" << LocalGlobalPromotion << ";lrr=" << std::hex
     << LinkerReservedRegs << std::dec << ";csp=" << CallerSavePropagation
     << ";pt=" << static_cast<int>(PointsTo);
  return hashHex(OS.str());
}

std::string PipelineConfig::analyzerFingerprint() const {
  // The fixed values ("blanket=6", "web.xstatic=1" for the §7.4 rule
  // and the §6.2/§4.2.2 thresholds) stay in the text so fingerprints
  // match the summaries, databases and cache entries written while
  // these were settable.
  std::ostringstream OS;
  OS << "dbfmt=" << DatabaseFormatVersion << ";ipra=" << Ipra
     << ";sm=" << SpillMotion
     << ";promo=" << static_cast<int>(Promotion) << ";pool=" << std::hex
     << WebPool << std::dec << ";blanket=6"
     << ";profile=" << UseProfile << ";relax=" << RelaxWebAvail
     << ";freesets=" << ImprovedFreeSets << ";csp=" << CallerSavePropagation
     << ";closed=" << AssumeClosedWorld
     << ";pt=" << static_cast<int>(PointsTo) << ";modref=" << ModRef
     << ";web.lref=" << MinLRefRatio << ";web.minfreq=" << MinSingleNodeFreq
     << ";web.xstatic=1;web.split=" << SplitSparseWebs
     << ";web.remerge=" << RemergeWebs
     << ";cluster.thresh=" << RootBenefitThreshold;
  return hashHex(OS.str());
}

std::string PipelineConfig::fingerprint() const {
  return hashParts({compileFingerprint(), analyzerFingerprint()});
}
