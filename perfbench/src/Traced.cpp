//===- Traced.cpp - The pipeline re-driven under spans --------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "Traced.h"

#include "analysis/GPG.h"
#include "analysis/GPGCompose.h"
#include "analysis/PointsTo.h"
#include "codegen/CodeGen.h"
#include "driver/Driver.h"
#include "ir/IRGen.h"
#include "ir/Verifier.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "link/Linker.h"
#include "link/ObjectIO.h"
#include "opt/Passes.h"
#include "summary/Summary.h"

#include <memory>

using namespace ipra;
using namespace perfbench;

namespace {

double countInstrs(const IRModule &M) {
  double N = 0;
  for (const auto &F : M.Functions)
    for (const auto &B : F->Blocks)
      N += static_cast<double>(B->Instrs.size());
  return N;
}

/// Level-2 optimization of every function, with the database's promoted
/// globals kept away from local promotion (as Pipeline does).
void optimizeModule(IRModule &IR, const ProgramDatabase *DB,
                    bool LocalGlobalPromotion, const GlobalAliasFacts *Alias) {
  for (auto &F : IR.Functions) {
    OptOptions Options;
    Options.LocalGlobalPromotion = LocalGlobalPromotion;
    Options.Alias = Alias;
    if (DB)
      for (const PromotedGlobal &P : DB->lookup(F->qualifiedName()).Promoted) {
        std::string Plain = P.QualName;
        size_t Colon = Plain.rfind(':');
        if (Colon != std::string::npos)
          Plain = Plain.substr(Colon + 1);
        Options.SkipGlobals.insert(Plain);
      }
    optimizeFunction(*F, Options);
  }
}

ObjectFile assembleObject(const IRModule &IR, std::vector<ObjFunction> Funcs) {
  ObjectFile Obj;
  Obj.Module = IR.Name;
  for (const IRGlobal &G : IR.Globals) {
    ObjGlobal OG;
    OG.QualName = G.qualifiedName();
    OG.SizeWords = G.SizeWords;
    OG.Init = G.Init;
    if (!G.FuncInit.empty()) {
      OG.FuncInit = G.FuncInit;
      for (const auto &F : IR.Functions)
        if (F->Name == G.FuncInit)
          OG.FuncInit = F->qualifiedName();
    }
    Obj.Globals.push_back(std::move(OG));
  }
  for (ObjFunction &F : Funcs)
    Obj.Functions.push_back(std::move(F));
  return Obj;
}

} // namespace

TracedBuild perfbench::tracedBuild(const std::vector<SourceFile> &Sources,
                                   const PipelineConfig &Config,
                                   const ProfileData *Profile, Tracer &T,
                                   int Op) {
  TracedBuild R;
  std::vector<SourceFile> All = Sources;
  All.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  const size_t N = All.size();
  const std::string CompileFP = Config.compileFingerprint();
  const bool WantPT = Config.PointsTo != PointsToMode::Off;

  // Front end, once per module (Pipeline shares the ASTs between phases).
  std::vector<std::unique_ptr<ModuleAST>> ASTs(N);
  for (size_t I = 0; I < N; ++I) {
    DiagnosticEngine Diags;
    std::vector<Token> Tokens;
    {
      Span S(&T, "lang.lex", Op);
      Lexer Lex(All[I].Name, All[I].Text, Diags);
      Tokens = Lex.lexAll();
    }
    R.Tokens += static_cast<double>(Tokens.size());
    {
      Span S(&T, "lang.parse", Op);
      Parser P(All[I].Name, std::move(Tokens), Diags);
      ASTs[I] = P.parseModule();
    }
    bool Ok = !Diags.hasErrors();
    if (Ok) {
      Span S(&T, "lang.sema", Op);
      Sema Checker(Diags);
      Ok = Checker.run(*ASTs[I]);
    }
    if (!Ok) {
      R.Error = "front end failed for " + All[I].Name + ": " +
                Diags.renderAll();
      return R;
    }
  }

  // Phase 1: IR, points-to, optimize, trial codegen, summary.
  ProgramDatabase DB;
  if (Config.Ipra) {
    R.SummaryTexts.resize(N);
    R.Summaries.resize(N);
    for (size_t I = 0; I < N; ++I) {
      DiagnosticEngine Diags;
      std::unique_ptr<IRModule> IR;
      {
        Span S(&T, "ir.irgen", Op);
        IR = generateIR(*ASTs[I], Diags);
      }
      R.IRInstrs += countInstrs(*IR);
      {
        Span S(&T, "ir.verify", Op);
        auto Problems = verifyModule(*IR);
        if (!Problems.empty()) {
          R.Error = "phase 1 IR verification failed: " + Problems[0];
          return R;
        }
      }
      std::unique_ptr<ModulePointsTo> PT;
      if (WantPT) {
        Span S(&T, "analysis.andersen", Op);
        PT = std::make_unique<ModulePointsTo>(*IR);
      }
      {
        Span S(&T, "opt.phase1", Op);
        optimizeModule(*IR, nullptr, Config.LocalGlobalPromotion, PT.get());
      }
      R.InstrsAfter += countInstrs(*IR);
      std::map<std::string, TrialCodeGenInfo> Estimates;
      {
        Span S(&T, "codegen.phase1", Op);
        for (auto &F : IR->Functions) {
          CodeGenResult CG = generateCode(*IR, *F, ProcDirectives());
          if (CG.Success)
            Estimates[F->Name] = TrialCodeGenInfo{
                CG.RA.CalleeRegsUsed,
                static_cast<unsigned>(CG.CallerRegsWritten)};
        }
      }
      ModuleSummary Summary;
      {
        Span S(&T, "summary.build", Op);
        Summary = buildModuleSummary(*IR, Estimates);
        if (PT)
          PT->applyToSummary(Summary);
      }
      if (Config.PointsTo == PointsToMode::GPG) {
        Span S(&T, "analysis.gpg_build", Op);
        buildGPGSummary(*IR, Summary);
      }
      Summary.ConfigFingerprint = CompileFP;
      {
        Span S(&T, "summary.write", Op);
        R.SummaryTexts[I] = writeSummary(Summary);
      }
      std::string Error;
      Span S(&T, "summary.read", Op);
      if (!readSummary(R.SummaryTexts[I], R.Summaries[I], Error)) {
        R.Error = "summary round-trip failed: " + Error;
        return R;
      }
    }

    // The program analyzer, then the database file round trip.
    CallProfile CP;
    if (Config.UseProfile && Profile) {
      CP.CallCounts = Profile->CallCounts;
      CP.EdgeCounts = Profile->EdgeCounts;
    }
    ProgramDatabase Produced;
    {
      Span S(&T, "core.analyze", Op);
      Produced = runAnalyzer(R.Summaries, Config.analyzerOptions(), CP,
                             &R.Analyzer);
    }
    Produced.ConfigFingerprint = Config.fingerprint();
    {
      Span S(&T, "db.write", Op);
      R.DatabaseText = Produced.serialize();
    }
    std::string Error;
    Span S(&T, "db.read", Op);
    if (!ProgramDatabase::deserialize(R.DatabaseText, DB, Error)) {
      R.Error = "database round-trip failed: " + Error;
      return R;
    }
  }

  // Phase 2: IR, points-to, optimize under the database, codegen, object.
  const bool HaveDB = Config.Ipra;
  CallClobberResolver Clobbers;
  if (HaveDB && Config.CallerSavePropagation)
    Clobbers = [&DB](const std::string &Callee) {
      return DB.lookup(Callee).SubtreeClobber;
    };
  std::vector<ObjectFile> Objects(N);
  R.ObjectTexts.resize(N);
  for (size_t I = 0; I < N; ++I) {
    DiagnosticEngine Diags;
    std::unique_ptr<IRModule> IR;
    {
      Span S(&T, "ir.irgen", Op);
      IR = generateIR(*ASTs[I], Diags);
    }
    if (!HaveDB)
      R.IRInstrs += countInstrs(*IR);
    std::unique_ptr<ModulePointsTo> PT;
    if (WantPT) {
      Span S(&T, "analysis.andersen", Op);
      PT = std::make_unique<ModulePointsTo>(*IR);
    }
    {
      Span S(&T, "opt.phase2", Op);
      optimizeModule(*IR, HaveDB ? &DB : nullptr, Config.LocalGlobalPromotion,
                     PT.get());
    }
    if (!HaveDB)
      R.InstrsAfter += countInstrs(*IR);
    {
      Span S(&T, "ir.verify", Op);
      auto Problems = verifyModule(*IR);
      if (!Problems.empty()) {
        R.Error = "phase 2 IR verification failed: " + Problems[0];
        return R;
      }
    }
    std::vector<ObjFunction> Funcs;
    {
      Span S(&T, "codegen.phase2", Op);
      for (auto &F : IR->Functions) {
        ProcDirectives Dir =
            HaveDB ? DB.lookup(F->qualifiedName()) : ProcDirectives();
        Dir.Caller &= ~Config.LinkerReservedRegs;
        Dir.Callee &= ~Config.LinkerReservedRegs;
        Dir.Free &= ~Config.LinkerReservedRegs;
        CodeGenResult CG = generateCode(*IR, *F, Dir, Clobbers);
        if (!CG.Success) {
          R.Error = "register allocation failed for " + F->qualifiedName();
          return R;
        }
        R.MachineInstrs += static_cast<double>(CG.Obj.Code.size());
        R.Spills += CG.RA.SpillCount;
        Funcs.push_back(std::move(CG.Obj));
      }
    }
    {
      Span S(&T, "object.write", Op);
      R.ObjectTexts[I] = writeObjectFile(assembleObject(*IR, std::move(Funcs)));
    }
    std::string Error;
    Span S(&T, "object.read", Op);
    if (!readObjectFile(R.ObjectTexts[I], Objects[I], Error)) {
      R.Error = "object round-trip failed: " + Error;
      return R;
    }
  }

  Span S(&T, "link", Op);
  LinkResult Linked = linkObjects(Objects);
  if (!Linked.Success) {
    R.Error = "link failed";
    for (const std::string &E : Linked.Errors)
      R.Error += "; " + E;
    return R;
  }
  R.Exe = std::move(Linked.Exe);
  R.Ok = true;
  return R;
}

void perfbench::gpgComposeProbe(const std::vector<ModuleSummary> &Summaries,
                                bool ClosedWorld, Tracer &T, int Op) {
  std::vector<ModuleSummary> Copy = Summaries;
  Span S(&T, "analysis.gpg_compose", Op);
  strengthenSummariesWithGPG(Copy, ClosedWorld);
}

void perfbench::addBuildLayers(LayerSamples &L, const Tracer &T, int Op,
                               const TracedBuild &B) {
  std::map<std::string, double> Self = T.selfMs(Op);
  auto Get = [&Self](const char *Name) {
    auto It = Self.find(Name);
    return It == Self.end() ? 0.0 : It->second;
  };
  L.add("lang.ms", Get("lang.lex") + Get("lang.parse") + Get("lang.sema"));
  L.add("ir.irgen_ms", Get("ir.irgen"));
  L.add("ir.verify_ms", Get("ir.verify"));
  L.add("analysis.andersen_ms", Get("analysis.andersen"));
  L.add("analysis.gpg_build_ms", Get("analysis.gpg_build"));
  L.add("analysis.gpg_compose_ms", Get("analysis.gpg_compose"));
  L.add("opt.phase1_ms", Get("opt.phase1"));
  L.add("opt.phase2_ms", Get("opt.phase2"));
  L.add("codegen.phase1_ms", Get("codegen.phase1"));
  L.add("codegen.phase2_ms", Get("codegen.phase2"));
  L.add("summary.build_ms", Get("summary.build"));
  L.add("summary.write_ms", Get("summary.write"));
  L.add("summary.read_ms", Get("summary.read"));
  L.add("db.write_ms", Get("db.write"));
  L.add("db.read_ms", Get("db.read"));
  L.add("object.write_ms", Get("object.write"));
  L.add("object.read_ms", Get("object.read"));
  L.add("link.ms", Get("link"));
  L.add("lang.tokens", B.Tokens);
  L.add("ir.instrs", B.IRInstrs);
  L.add("opt.instrs_after", B.InstrsAfter);
  L.add("codegen.machine_instrs", B.MachineInstrs);
  L.add("codegen.spills", B.Spills);
  double SummaryBytes = 0, ObjectBytes = 0;
  for (const std::string &S : B.SummaryTexts)
    SummaryBytes += static_cast<double>(S.size());
  for (const std::string &O : B.ObjectTexts)
    ObjectBytes += static_cast<double>(O.size());
  L.add("summary.bytes", SummaryBytes);
  L.add("db.bytes", static_cast<double>(B.DatabaseText.size()));
  L.add("link.object_bytes", ObjectBytes);
  if (!B.DatabaseText.empty())
    addAnalyzerLayers(L, B.Analyzer, Get("core.analyze"), true);
}

void perfbench::addAnalyzerLayers(LayerSamples &L, const AnalyzerStats &S,
                                  double AnalyzeMs, bool Cold) {
  L.add("core.analyze_ms", AnalyzeMs);
  L.add("core.refsets_ms", S.RefSetsMs);
  L.add("core.modref_ms", S.ModRefMs);
  L.add("core.webs_ms", S.WebsMs);
  L.add("core.coloring_ms", S.ColoringMs);
  L.add("core.clusters_ms", S.ClustersMs);
  L.add("core.regsets_ms", S.RegSetsMs);
  L.add("core.untracked_ms", AnalyzeMs - S.RefSetsMs - S.ModRefMs -
                                 S.WebsMs - S.ColoringMs - S.ClustersMs -
                                 S.RegSetsMs);
  if (Cold && S.TotalWebs > 0)
    L.add("core.webs_kept_ratio",
          static_cast<double>(S.ColoredWebs) / S.TotalWebs);
}
