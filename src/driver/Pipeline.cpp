//===- Pipeline.cpp - Phase-granular incremental pipeline -----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/GPG.h"
#include "analysis/Lint.h"
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
#include "support/Hash.h"
#include "support/ThreadPool.h"

#include <optional>
#include <sstream>

using namespace ipra;

namespace {

/// Parses and checks one module; returns null on error.
std::unique_ptr<ModuleAST> frontEnd(const SourceFile &Source,
                                    DiagnosticEngine &Diags) {
  Lexer Lex(Source.Name, Source.Text, Diags);
  Parser P(Source.Name, Lex.lexAll(), Diags);
  auto AST = P.parseModule();
  if (Diags.hasErrors())
    return nullptr;
  Sema S(Diags);
  if (!S.run(*AST))
    return nullptr;
  return AST;
}

/// One module lowered from its AST up to the database-independent
/// optimizer stage: IRGen, verification of the pristine IR, the
/// points-to solve on it (optimization only removes access sites, so
/// the facts stay sound afterwards), and optimizeToFixpoint on every
/// function. Phase 1 and phase 2 both start from this; the fused build
/// keeps phase 1's copy as Figure 1's IR file for phase 2.
struct LoweredModule {
  std::unique_ptr<IRModule> IR;
  std::unique_ptr<ModulePointsTo> PT;
  double PointsToMs = 0; ///< Time of the points-to solve.
};

/// Lowers \p AST; returns the first verifier problem, or "" on success.
std::string lowerModule(const ModuleAST &AST, PointsToMode Mode,
                        LoweredModule &Out) {
  DiagnosticEngine Diags;
  Out.IR = generateIR(AST, Diags);
  auto Problems = verifyModule(*Out.IR);
  if (!Problems.empty())
    return Problems[0];
  if (Mode != PointsToMode::Off) {
    ScopedTimerMs Timer(Out.PointsToMs);
    Out.PT = std::make_unique<ModulePointsTo>(*Out.IR);
  }
  for (auto &F : Out.IR->Functions)
    optimizeToFixpoint(*F);
  return "";
}

/// The database-dependent optimizer stage: local global promotion with
/// the globals the database promotes excluded (§5: the dedicated
/// register takes over), refined by the module's points-to facts.
void finishForDirectives(IRModule &IR, const ProgramDatabase *DB,
                         bool LocalGlobalPromotion,
                         const GlobalAliasFacts *Alias) {
  for (auto &F : IR.Functions) {
    OptOptions Options;
    Options.LocalGlobalPromotion = LocalGlobalPromotion;
    Options.Alias = Alias;
    if (DB) {
      ProcDirectives Dir = DB->lookup(F->qualifiedName());
      for (const PromotedGlobal &P : Dir.Promoted) {
        // Directive names are qualified; the local pass sees plain
        // module-level names.
        std::string Plain = P.QualName;
        size_t Colon = Plain.rfind(':');
        if (Colon != std::string::npos)
          Plain = Plain.substr(Colon + 1);
        Options.SkipGlobals.insert(Plain);
      }
    }
    finishOptimization(*F, Options);
  }
}

/// Phase 1's trial code generation of one function, for the summary's
/// register-need estimate and caller-saves footprint (§6, §7.6.2).
std::optional<TrialCodeGenInfo> trialCodeGen(const IRModule &IR,
                                             const IRFunction &F) {
  CodeGenResult CG = generateCode(IR, F, ProcDirectives());
  if (!CG.Success)
    return std::nullopt;
  return TrialCodeGenInfo{CG.RA.CalleeRegsUsed,
                          static_cast<unsigned>(CG.CallerRegsWritten)};
}

/// The database's directives for \p F (the standard linkage convention
/// without one), minus the registers the linker reserves.
ProcDirectives directivesFor(const ProgramDatabase *DB, const IRFunction &F,
                             RegMask LinkerReserved) {
  ProcDirectives Dir = DB ? DB->lookup(F.qualifiedName()) : ProcDirectives();
  Dir.Caller &= ~LinkerReserved;
  Dir.Callee &= ~LinkerReserved;
  Dir.Free &= ~LinkerReserved;
  return Dir;
}

/// Per-callee clobber masks for the §7.6.2 extension; without a
/// database (or with the extension off) every call clobbers fully. The
/// resolver only reads the database, so code-generation workers share
/// it.
CallClobberResolver clobbersFor(const ProgramDatabase *DB,
                                bool CallerSavePropagation) {
  if (!DB || !CallerSavePropagation)
    return CallClobberResolver();
  return [DB](const std::string &Callee) {
    return DB->lookup(Callee).SubtreeClobber;
  };
}

/// One function's position in the flattened cross-module work list
/// both phases use for parallel code generation.
struct FuncJob {
  size_t Module = 0;
  size_t Func = 0;
};

/// The first non-empty per-module error, in module order, so the
/// reported error does not depend on worker scheduling.
const std::string *firstError(const std::vector<std::string> &Errors) {
  for (const std::string &E : Errors)
    if (!E.empty())
      return &E;
  return nullptr;
}

/// Assembles the textual object file for one compiled module.
ObjectFile assembleObject(const IRModule &IR,
                          std::vector<ObjFunction> Funcs) {
  ObjectFile Obj;
  Obj.Module = IR.Name;
  for (const IRGlobal &G : IR.Globals) {
    ObjGlobal OG;
    OG.QualName = G.qualifiedName();
    OG.SizeWords = G.SizeWords;
    OG.Init = G.Init;
    if (!G.FuncInit.empty()) {
      // Resolve the initializer function's qualified name.
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

/// Deterministic text rendering of a profile, for the analyzer cache
/// key (std::map iteration is ordered).
std::string serializeProfile(const CallProfile &CP) {
  std::ostringstream OS;
  for (const auto &[Name, N] : CP.CallCounts)
    OS << "c " << Name << " " << N << "\n";
  for (const auto &[Edge, N] : CP.EdgeCounts)
    OS << "e " << Edge.first << " " << Edge.second << " " << N << "\n";
  return OS.str();
}

/// The analyzer cache entry bundles the AnalyzerStats with the database
/// text (a cached analyzer run must still report its statistics):
/// one "analyzer-stats <20 counters> <6 sub-phase ms>" line, then the
/// database verbatim. Entries written under an older field count fail
/// the parse below and degrade to a cache miss.
std::string statsHeader(const AnalyzerStats &S) {
  std::ostringstream OS;
  OS << "analyzer-stats " << S.EligibleGlobals << " " << S.TotalWebs << " "
     << S.ConsideredWebs << " " << S.ColoredWebs << " " << S.SplitWebs
     << " " << S.RemergedWebs << " " << S.NumClusters << " "
     << S.TotalClusterNodes << " " << S.MaxClusterSize << " "
     << S.EscapesRefuted << " " << S.IndirectCallersResolved << " "
     << S.GPGComposedProcs << " " << S.GPGContexts << " "
     << S.GPGRefutedBeyondAndersen << " " << S.GPGResolvedBeyondAndersen
     << " " << S.ReadOnlyGlobals << " " << S.WriteOnlyGlobals << " "
     << S.DeadGlobals << " " << S.UninitReadGlobals << " " << S.DeadProcs
     << " " << S.RefSetsMs << " " << S.ModRefMs << " " << S.WebsMs << " "
     << S.ColoringMs << " " << S.ClustersMs << " " << S.RegSetsMs << "\n";
  return OS.str();
}

bool splitStatsEntry(const std::string &Entry, AnalyzerStats &S,
                     std::string &DbText) {
  size_t NL = Entry.find('\n');
  if (NL == std::string::npos)
    return false;
  std::istringstream IS(Entry.substr(0, NL));
  std::string Tag;
  IS >> Tag >> S.EligibleGlobals >> S.TotalWebs >> S.ConsideredWebs >>
      S.ColoredWebs >> S.SplitWebs >> S.RemergedWebs >> S.NumClusters >>
      S.TotalClusterNodes >> S.MaxClusterSize >> S.EscapesRefuted >>
      S.IndirectCallersResolved >> S.GPGComposedProcs >> S.GPGContexts >>
      S.GPGRefutedBeyondAndersen >> S.GPGResolvedBeyondAndersen >>
      S.ReadOnlyGlobals >> S.WriteOnlyGlobals >> S.DeadGlobals >>
      S.UninitReadGlobals >> S.DeadProcs >> S.RefSetsMs >> S.ModRefMs >>
      S.WebsMs >> S.ColoringMs >> S.ClustersMs >> S.RegSetsMs;
  if (Tag != "analyzer-stats" || IS.fail())
    return false;
  DbText = Entry.substr(NL + 1);
  return true;
}

std::string summaryKey(const std::string &CompileFP,
                       const SourceFile &Source) {
  return hashParts({"summary", CompileFP, Source.Name, Source.Text});
}

std::string objectKey(const std::string &CompileFP,
                      const SourceFile &Source, const std::string &Slice) {
  return hashParts({"object", CompileFP, Source.Name, Source.Text, Slice});
}

} // namespace

Pipeline::Pipeline(PipelineConfig Config_,
                   std::shared_ptr<ArtifactCache> SharedCache,
                   std::shared_ptr<AnalyzerSession> SharedSession)
    : Config(std::move(Config_)),
      Cache(SharedCache
                ? std::move(SharedCache)
                : std::make_shared<ArtifactCache>(ArtifactCacheConfig{
                      Config.CacheDir, Config.CacheMemBudgetBytes,
                      Config.CacheDiskBudgetBytes,
                      Config.CacheDiskTTLSeconds})),
      Session(SharedSession ? std::move(SharedSession)
                            : std::make_shared<AnalyzerSession>()),
      CompileFP(Config.compileFingerprint()),
      AnalyzerFP(Config.analyzerFingerprint()),
      FullFP(Config.fingerprint()) {}

//===----------------------------------------------------------------------===//
// Phase-granular bodies.
//===----------------------------------------------------------------------===//

SummaryResult Pipeline::compileSummaryImpl(const SourceFile &Source) {
  SummaryResult Result;
  std::string Key = summaryKey(CompileFP, Source);
  if (auto Entry = Cache->get(Key)) {
    ModuleSummary Parsed;
    std::string Error;
    if (readSummary(*Entry, Parsed, Error) &&
        Parsed.ConfigFingerprint == CompileFP) {
      Result.SummaryText = std::move(*Entry);
      Result.FromCache = true;
      Result.Ok = true;
      return Result;
    }
    Cache->invalidate(Key); // Corrupt or stale entry: recompute.
  }

  DiagnosticEngine Diags;
  auto AST = frontEnd(Source, Diags);
  if (!AST) {
    Result.Diags.addAll(Diags);
    return Result;
  }
  LoweredModule L;
  std::string Problem = lowerModule(*AST, Config.PointsTo, L);
  if (!Problem.empty()) {
    Result.Diags.error("IR verification failed: " + Problem);
    return Result;
  }
  finishForDirectives(*L.IR, nullptr, Config.LocalGlobalPromotion,
                      L.PT.get());
  const IRModule &IR = *L.IR;

  std::map<std::string, TrialCodeGenInfo> Estimates;
  for (auto &F : IR.Functions)
    if (auto Info = trialCodeGen(IR, *F))
      Estimates[F->Name] = *Info;
  ModuleSummary Summary = buildModuleSummary(IR, Estimates);
  if (L.PT)
    L.PT->applyToSummary(Summary);
  // GPG mode additionally attaches the module's composable points-to
  // residue (summary format v4); the analyzer composes the residues
  // bottom-up and strengthens the Andersen facts above.
  if (Config.PointsTo == PointsToMode::GPG)
    buildGPGSummary(IR, Summary);
  Summary.ConfigFingerprint = CompileFP;
  Result.SummaryText = writeSummary(Summary);
  Cache->put(Key, Result.SummaryText);
  Result.Ok = true;
  return Result;
}

bool Pipeline::analyzeCached(const std::vector<ModuleSummary> &Summaries,
                             const std::vector<std::string> &SummaryTexts,
                             const CallProfile &CP, AnalyzerStats &Stats,
                             std::string &DbText, ProgramDatabase &DB,
                             bool &FromCache, std::string &Mode,
                             DeltaStats &DS, std::string &Error) {
  FromCache = false;
  Mode = "full";
  DS = DeltaStats();
  std::string ProfileText = serializeProfile(CP);
  std::vector<std::string_view> Parts{"database", AnalyzerFP, ProfileText};
  for (const std::string &T : SummaryTexts)
    Parts.push_back(T);
  std::string Key = hashParts(Parts);

  if (auto Entry = Cache->get(Key)) {
    AnalyzerStats CachedStats;
    std::string CachedDb;
    if (splitStatsEntry(*Entry, CachedStats, CachedDb)) {
      ProgramDatabase Parsed;
      std::string ParseError;
      if (ProgramDatabase::deserialize(CachedDb, Parsed, ParseError) &&
          Parsed.ConfigFingerprint == FullFP) {
        DB = std::move(Parsed);
        DbText = std::move(CachedDb);
        Stats = CachedStats;
        FromCache = true;
        Mode = "cached";
        return true;
      }
    }
    Cache->invalidate(Key); // Corrupt or stale entry: recompute.
  }

  ProgramDatabase Produced;
  if (Config.DeltaAnalysis) {
    // Damage-region re-analysis over the state the session retained
    // from the previous miss; byte-identical to the cold run by
    // construction (falls back internally when the edit is
    // inexpressible). The session serializes concurrent callers, so
    // same-program requests coalesce instead of racing.
    AnalyzerSession::Outcome O =
        Session->analyze(Summaries, Config.analyzerOptions(), CP);
    Produced = std::move(O.DB);
    Stats = O.Stats;
    DS = O.Delta;
    if (DS.Mode == DeltaMode::Incremental)
      Mode = "delta";
  } else {
    Produced = runAnalyzer(Summaries, Config.analyzerOptions(), CP, &Stats);
  }
  Produced.ConfigFingerprint = FullFP;
  // Round-trip through the database file format (§2).
  DbText = Produced.serialize();
  if (!ProgramDatabase::deserialize(DbText, DB, Error))
    return false;
  Cache->put(Key, statsHeader(Stats) + DbText);
  return true;
}

Status Pipeline::executeAnalyze(const BuildRequest &Req,
                                BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.AnalyzerMs);
  std::vector<ModuleSummary> Summaries;
  for (const std::string &Text : Req.Summaries) {
    ModuleSummary S;
    std::string Error;
    if (!readSummary(Text, S, Error))
      return Status::error("bad summary file: " + Error);
    if (!S.ConfigFingerprint.empty() && S.ConfigFingerprint != CompileFP)
      return Status::error(
          "bad summary file: summary for module '" + S.Module +
          "' was produced under a different compiler configuration "
          "(fingerprint " +
          S.ConfigFingerprint + ", expected " + CompileFP +
          "); re-run phase 1 with matching options");
    Summaries.push_back(std::move(S));
  }

  CallProfile CP;
  if (Config.UseProfile && Req.Profile) {
    CP.CallCounts = Req.Profile->CallCounts;
    CP.EdgeCounts = Req.Profile->EdgeCounts;
  }
  ProgramDatabase DB;
  bool FromCache = false;
  std::string Mode;
  std::string Error;
  if (!analyzeCached(Summaries, Req.Summaries, CP, Resp.Analyzer,
                     Resp.Database, DB, FromCache, Mode, Resp.Delta,
                     Error))
    return Status::error("database round-trip failed: " + Error);
  Resp.FromCache = FromCache;
  Resp.Stats.AnalyzerMode = Mode;
  if (FromCache) {
    ++Resp.Stats.AnalyzerCacheHits;
    Resp.Stats.CacheBytesSaved += Resp.Database.size();
  } else {
    ++Resp.Stats.AnalyzerCacheMisses;
  }
  Resp.Stats.DatabaseBytes = Resp.Database.size();
  return Status::success();
}

ObjectResult Pipeline::compileObjectImpl(const SourceFile &Source,
                                         const std::string &DatabaseText) {
  ObjectResult Result;
  ProgramDatabase DB;
  const ProgramDatabase *DBP = nullptr; // No database: standard linkage.
  if (!DatabaseText.empty()) {
    DBP = &DB;
    std::string Error;
    if (!ProgramDatabase::deserialize(DatabaseText, DB, Error)) {
      Result.Diags.error("bad program database: " + Error);
      return Result;
    }
    if (!DB.ConfigFingerprint.empty() && DB.ConfigFingerprint != FullFP) {
      Result.Diags.error(
          "bad program database: database was produced under a different "
          "configuration (fingerprint " +
          DB.ConfigFingerprint + ", expected " + FullFP +
          "); re-run the analyzer with matching options");
      return Result;
    }
  }

  // Standalone calls have no summary to compute the precise database
  // slice from; the whole database text stands in (build() keys on
  // ProgramDatabase::sliceFor instead).
  std::string Key = objectKey(CompileFP, Source, DatabaseText);
  if (auto Entry = Cache->get(Key)) {
    ObjectFile Parsed;
    std::string Error;
    if (readObjectFile(*Entry, Parsed, Error)) {
      Result.ObjectText = std::move(*Entry);
      Result.FromCache = true;
      Result.Ok = true;
      return Result;
    }
    Cache->invalidate(Key); // Corrupt entry: recompute.
  }

  DiagnosticEngine Diags;
  auto AST = frontEnd(Source, Diags);
  if (!AST) {
    Result.Diags.addAll(Diags);
    return Result;
  }
  LoweredModule L;
  std::string Problem = lowerModule(*AST, Config.PointsTo, L);
  if (Problem.empty()) {
    finishForDirectives(*L.IR, DBP, Config.LocalGlobalPromotion,
                        L.PT.get());
    auto Problems = verifyModule(*L.IR);
    if (!Problems.empty())
      Problem = Problems[0];
  }
  if (!Problem.empty()) {
    Result.Diags.error("IR verification failed: " + Problem);
    return Result;
  }
  const IRModule &IR = *L.IR;

  CallClobberResolver Clobbers =
      clobbersFor(DBP, Config.CallerSavePropagation);
  std::vector<ObjFunction> Funcs;
  for (auto &F : IR.Functions) {
    CodeGenResult CG = generateCode(
        IR, *F, directivesFor(DBP, *F, Config.LinkerReservedRegs),
        Clobbers);
    if (!CG.Success) {
      Result.Diags.error("register allocation failed for " +
                         F->qualifiedName());
      return Result;
    }
    Funcs.push_back(std::move(CG.Obj));
  }
  Result.ObjectText = writeObjectFile(assembleObject(IR, std::move(Funcs)));
  Cache->put(Key, Result.ObjectText);
  Result.Ok = true;
  return Result;
}

LinkedResult Pipeline::linkImpl(const std::vector<std::string> &ObjectTexts) {
  LinkedResult Result;
  std::vector<ObjectFile> Parsed;
  for (const std::string &Text : ObjectTexts) {
    ObjectFile Obj;
    std::string Error;
    if (!readObjectFile(Text, Obj, Error)) {
      Result.Diags.error("bad object file: " + Error);
      return Result;
    }
    Parsed.push_back(std::move(Obj));
  }
  LinkResult Linked = linkObjects(Parsed);
  if (!Linked.Success) {
    std::string Text = "link failed:";
    for (const std::string &E : Linked.Errors)
      Text += "\n  " + E;
    Result.Diags.error(std::move(Text));
    return Result;
  }
  Result.Exe = std::move(Linked.Exe);
  Result.Ok = true;
  return Result;
}

//===----------------------------------------------------------------------===//
// The fused incremental build.
//===----------------------------------------------------------------------===//

BuildResult Pipeline::buildImpl(const std::vector<SourceFile> &Sources,
                                const ProfileData *Profile,
                                DeltaStats *OutDS) {
  BuildResult Result;
  PipelineStats &PS = Result.Stats;
  ScopedTimerMs TotalTimer(PS.TotalMs);
  const unsigned Threads = resolveThreadCount(Config.NumThreads);
  ThreadPool Pool(Threads);
  PS.ThreadsUsed = Threads;

  std::vector<SourceFile> AllSources = Sources;
  AllSources.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  const size_t NumModules = AllSources.size();
  PS.Modules.resize(NumModules);
  for (size_t I = 0; I < NumModules; ++I)
    PS.Modules[I].Name = AllSources[I].Name;

  // ---- Front end, on demand: a module whose artifacts all come out of
  // the cache is never parsed (the cached artifact proves the source it
  // hashes compiled cleanly). Each module gets its own diagnostic
  // engine; merging in module order keeps the rendered text independent
  // of worker scheduling.
  std::vector<std::unique_ptr<ModuleAST>> ASTs(NumModules);
  std::vector<char> FrontEndRan(NumModules, 0);
  std::vector<DiagnosticEngine> ModuleDiags(NumModules);
  auto ensureFrontEnd = [&](const std::vector<size_t> &Need) {
    std::vector<size_t> Run;
    for (size_t I : Need)
      if (!FrontEndRan[I])
        Run.push_back(I);
    if (!Run.empty()) {
      ScopedTimerMs Timer(PS.FrontEndMs);
      parallelForEach(Pool, Run.size(), [&](size_t J) {
        size_t I = Run[J];
        ScopedTimerMs ModuleTimer(PS.Modules[I].FrontEndMs);
        ASTs[I] = frontEnd(AllSources[I], ModuleDiags[I]);
        FrontEndRan[I] = 1;
      });
    }
    bool Ok = true;
    for (size_t I : Need)
      Ok &= ASTs[I] != nullptr;
    if (!Ok)
      for (size_t I = 0; I < NumModules; ++I)
        Result.Diags.addAll(ModuleDiags[I]);
    return Ok;
  };

  // ---- Compiler first phase: optimize, trial codegen, summary file.
  // Cache key: compile fingerprint x module name x source text.
  // Every module phase 1 compiles also leaves its IR file (Figure 1):
  // the IR as optimizeToFixpoint left it, plus its points-to facts.
  // Only finishOptimization reads the database, so phase 2 resumes from
  // there instead of lowering the module again.
  ProgramDatabase DB;
  const ProgramDatabase *DBP = nullptr; // Set once the analyzer ran.
  std::vector<ModuleSummary> Summaries(NumModules);
  std::vector<std::string> SummaryTexts(NumModules);
  std::vector<LoweredModule> IRFiles(NumModules);
  if (Config.Ipra) {
    {
      ScopedTimerMs Timer(PS.Phase1Ms);
      std::vector<std::string> Keys(NumModules);
      std::vector<size_t> Miss;
      for (size_t I = 0; I < NumModules; ++I) {
        Keys[I] = summaryKey(CompileFP, AllSources[I]);
        if (auto Entry = Cache->get(Keys[I])) {
          ModuleSummary Parsed;
          std::string Error;
          if (readSummary(*Entry, Parsed, Error) &&
              Parsed.ConfigFingerprint == CompileFP) {
            SummaryTexts[I] = std::move(*Entry);
            Summaries[I] = std::move(Parsed);
            ++PS.Phase1CacheHits;
            PS.Modules[I].Phase1FromCache = true;
            PS.CacheBytesSaved += SummaryTexts[I].size();
            continue;
          }
          Cache->invalidate(Keys[I]); // Corrupt entry: recompute.
        }
        ++PS.Phase1CacheMisses;
        Miss.push_back(I);
      }

      if (!Miss.empty()) {
        if (!ensureFrontEnd(Miss))
          return Result;
        std::vector<std::unique_ptr<IRModule>> IRs(NumModules);
        std::vector<std::string> Errors(NumModules);
        parallelForEach(Pool, Miss.size(), [&](size_t J) {
          size_t I = Miss[J];
          ScopedTimerMs ModuleTimer(PS.Modules[I].Phase1Ms);
          LoweredModule &L = IRFiles[I];
          std::string Problem = lowerModule(*ASTs[I], Config.PointsTo, L);
          PS.Modules[I].PointsToMs += L.PointsToMs;
          if (!Problem.empty()) {
            Errors[I] = "phase 1 IR verification failed: " + Problem;
            return;
          }
          ASTs[I].reset(); // Phase 2 resumes from the IR file instead.
          IRs[I] = L.IR->clone();
          finishForDirectives(*IRs[I], nullptr, Config.LocalGlobalPromotion,
                              L.PT.get());
        });
        if (const std::string *E = firstError(Errors)) {
          Result.Diags.error(*E);
          return Result;
        }

        // Trial code generation for the register-need estimates and the
        // caller-saves footprints (§6, §7.6.2), parallel across every
        // function of every recompiled module.
        std::vector<FuncJob> Jobs;
        for (size_t I : Miss)
          for (size_t F = 0; F < IRs[I]->Functions.size(); ++F)
            Jobs.push_back(FuncJob{I, F});
        std::vector<std::vector<std::optional<TrialCodeGenInfo>>> Trial(
            NumModules);
        for (size_t I : Miss)
          Trial[I].resize(IRs[I]->Functions.size());
        std::vector<double> JobMs(Jobs.size(), 0);
        parallelForEach(Pool, Jobs.size(), [&](size_t J) {
          ScopedTimerMs JobTimer(JobMs[J]);
          const IRModule &IR = *IRs[Jobs[J].Module];
          Trial[Jobs[J].Module][Jobs[J].Func] =
              trialCodeGen(IR, *IR.Functions[Jobs[J].Func]);
        });
        for (size_t J = 0; J < Jobs.size(); ++J)
          PS.Modules[Jobs[J].Module].Phase1Ms += JobMs[J];

        // Summary emission, round-tripped through the textual
        // summary-file format and stamped with the compile fingerprint.
        std::vector<GPGBuildStats> GPGStats(NumModules);
        parallelForEach(Pool, Miss.size(), [&](size_t J) {
          size_t I = Miss[J];
          ScopedTimerMs ModuleTimer(PS.Modules[I].Phase1Ms);
          std::map<std::string, TrialCodeGenInfo> Estimates;
          for (size_t F = 0; F < Trial[I].size(); ++F)
            if (Trial[I][F])
              Estimates[IRs[I]->Functions[F]->Name] = *Trial[I][F];
          ModuleSummary Summary = buildModuleSummary(*IRs[I], Estimates);
          if (IRFiles[I].PT)
            IRFiles[I].PT->applyToSummary(Summary);
          // GPG mode additionally attaches the module's composable
          // points-to residue (summary format v4) for the analyzer's
          // bottom-up composition.
          if (Config.PointsTo == PointsToMode::GPG) {
            ScopedTimerMs GPGTimer(PS.Modules[I].PointsToMs);
            GPGStats[I] = buildGPGSummary(*IRs[I], Summary);
          }
          Summary.ConfigFingerprint = CompileFP;
          std::string Text = writeSummary(Summary);
          ModuleSummary Parsed;
          std::string Error;
          if (!readSummary(Text, Parsed, Error)) {
            Errors[I] = "summary round-trip failed: " + Error;
            return;
          }
          SummaryTexts[I] = std::move(Text);
          Summaries[I] = std::move(Parsed);
        });
        if (const std::string *E = firstError(Errors)) {
          Result.Diags.error(*E);
          return Result;
        }
        // Publish only once every miss round-tripped cleanly; failures
        // are never cached.
        for (size_t I : Miss)
          Cache->put(Keys[I], SummaryTexts[I]);
        for (size_t I : Miss) {
          if (const ModulePointsTo *PT = IRFiles[I].PT.get()) {
            PS.PointsToConstraints += PT->stats().Constraints;
            PS.PointsToIterations += PT->stats().Iterations;
          }
          PS.GPGUpdates += GPGStats[I].Updates;
          PS.GPGCallSites += GPGStats[I].CallSites;
        }
      }
      Result.SummaryFiles = SummaryTexts;
      for (size_t I = 0; I < NumModules; ++I) {
        PS.Modules[I].SummaryBytes = SummaryTexts[I].size();
        PS.SummaryBytes += SummaryTexts[I].size();
      }
    }

    // ---- Program analyzer: the one whole-program step. Web discovery
    // inside it fans out per global onto the configured thread count
    // (output is byte-identical at any value); the remaining stages are
    // sequential. Cache key: analyzer fingerprint x profile x every
    // summary text.
    ScopedTimerMs Timer(PS.AnalyzerMs);
    CallProfile CP;
    if (Config.UseProfile && Profile) {
      CP.CallCounts = Profile->CallCounts;
      CP.EdgeCounts = Profile->EdgeCounts;
    }
    bool FromCache = false;
    std::string Mode;
    DeltaStats DS;
    std::string Error;
    if (!analyzeCached(Summaries, SummaryTexts, CP, Result.Analyzer,
                       Result.DatabaseFile, DB, FromCache, Mode, DS,
                       Error)) {
      Result.Diags.error("database round-trip failed: " + Error);
      return Result;
    }
    if (FromCache) {
      ++PS.AnalyzerCacheHits;
      PS.CacheBytesSaved += Result.DatabaseFile.size();
    } else {
      ++PS.AnalyzerCacheMisses;
    }
    if (OutDS)
      *OutDS = DS;
    PS.AnalyzerMode = Mode;
    PS.AnalyzerChangedProcs = DS.ChangedProcs;
    PS.AnalyzerDamagedSccs = DS.DamagedSccs;
    PS.AnalyzerTotalSccs = DS.TotalSccs;
    PS.AnalyzerDamagedGlobals = DS.DamagedGlobals;
    PS.AnalyzerTotalGlobals = DS.TotalGlobals;
    PS.AnalyzerReuseRatio =
        Mode == "delta" ? DS.reuseRatio() : 0.0;
    if (Config.DeltaAnalysis && DS.Mode == DeltaMode::Full)
      PS.AnalyzerFallbackReason = DS.FallbackReason;
    PS.AnalyzerRefSetsMs = Result.Analyzer.RefSetsMs;
    PS.AnalyzerWebsMs = Result.Analyzer.WebsMs;
    PS.AnalyzerColoringMs = Result.Analyzer.ColoringMs;
    PS.AnalyzerClustersMs = Result.Analyzer.ClustersMs;
    PS.AnalyzerRegSetsMs = Result.Analyzer.RegSetsMs;
    PS.PointsToEscapesRefuted =
        static_cast<unsigned>(Result.Analyzer.EscapesRefuted);
    PS.PointsToIndirectResolved =
        static_cast<unsigned>(Result.Analyzer.IndirectCallersResolved);
    PS.GPGComposedProcs =
        static_cast<unsigned>(Result.Analyzer.GPGComposedProcs);
    PS.GPGContexts = static_cast<unsigned>(Result.Analyzer.GPGContexts);
    PS.GPGRefutedBeyondAndersen =
        static_cast<unsigned>(Result.Analyzer.GPGRefutedBeyondAndersen);
    PS.GPGResolvedBeyondAndersen =
        static_cast<unsigned>(Result.Analyzer.GPGResolvedBeyondAndersen);
    PS.ModRefReadOnlyGlobals =
        static_cast<unsigned>(Result.Analyzer.ReadOnlyGlobals);
    PS.ModRefWriteOnlyGlobals =
        static_cast<unsigned>(Result.Analyzer.WriteOnlyGlobals);
    PS.ModRefDeadGlobals =
        static_cast<unsigned>(Result.Analyzer.DeadGlobals);
    PS.ModRefUninitReadGlobals =
        static_cast<unsigned>(Result.Analyzer.UninitReadGlobals);
    PS.ModRefDeadProcs = static_cast<unsigned>(Result.Analyzer.DeadProcs);
    PS.ModRefMs = Result.Analyzer.ModRefMs;
    PS.DatabaseBytes = Result.DatabaseFile.size();
    DBP = &DB;
  }

  // ---- Compiler second phase: per-module compilation to objects.
  // Cache key: compile fingerprint x module name x source text x the
  // module's database slice — after an edit, only modules whose slice
  // the analyzer actually moved recompile. A miss resumes from the
  // module's phase-1 IR file when this build made one; a module whose
  // summary came from the cache (or a build without IPRA) lowers from
  // its AST instead. Both give the same IR, because lowering is a
  // function of the source alone.
  std::vector<ObjectFile> Objects(NumModules);
  {
    ScopedTimerMs Timer(PS.Phase2Ms);
    std::vector<std::string> ObjTexts(NumModules);
    std::vector<std::string> Keys(NumModules);
    std::vector<size_t> Miss;
    for (size_t I = 0; I < NumModules; ++I) {
      std::string Slice =
          DBP ? DB.sliceFor(Summaries[I], Config.CallerSavePropagation)
                 : std::string();
      Keys[I] = objectKey(CompileFP, AllSources[I], Slice);
      if (auto Entry = Cache->get(Keys[I])) {
        ObjectFile Parsed;
        std::string Error;
        if (readObjectFile(*Entry, Parsed, Error)) {
          ObjTexts[I] = std::move(*Entry);
          Objects[I] = std::move(Parsed);
          IRFiles[I] = LoweredModule();
          ++PS.Phase2CacheHits;
          PS.Modules[I].Phase2FromCache = true;
          PS.CacheBytesSaved += ObjTexts[I].size();
          continue;
        }
        Cache->invalidate(Keys[I]); // Corrupt entry: recompute.
      }
      ++PS.Phase2CacheMisses;
      Miss.push_back(I);
    }

    if (!Miss.empty()) {
      std::vector<size_t> Relower;
      for (size_t I : Miss)
        if (!IRFiles[I].IR)
          Relower.push_back(I);
      if (!ensureFrontEnd(Relower))
        return Result;
      std::vector<std::unique_ptr<IRModule>> IRs(NumModules);
      std::vector<std::string> Errors(NumModules);
      parallelForEach(Pool, Miss.size(), [&](size_t J) {
        size_t I = Miss[J];
        ScopedTimerMs ModuleTimer(PS.Modules[I].Phase2Ms);
        LoweredModule L = std::move(IRFiles[I]);
        if (!L.IR) {
          std::string Problem = lowerModule(*ASTs[I], Config.PointsTo, L);
          PS.Modules[I].PointsToMs += L.PointsToMs;
          if (!Problem.empty()) {
            Errors[I] = "phase 2 IR verification failed: " + Problem;
            return;
          }
        }
        finishForDirectives(*L.IR, DBP, Config.LocalGlobalPromotion,
                            L.PT.get());
        auto Problems = verifyModule(*L.IR);
        if (!Problems.empty()) {
          Errors[I] = "phase 2 IR verification failed: " + Problems[0];
          return;
        }
        IRs[I] = std::move(L.IR);
      });
      if (const std::string *E = firstError(Errors)) {
        Result.Diags.error(*E);
        return Result;
      }

      CallClobberResolver Clobbers =
          clobbersFor(DBP, Config.CallerSavePropagation);

      // Code generation, parallel across every function of every
      // recompiled module; each function writes into its (module,
      // function) slot so object files come out byte-identical at any
      // thread count.
      std::vector<FuncJob> Jobs;
      for (size_t I : Miss)
        for (size_t F = 0; F < IRs[I]->Functions.size(); ++F)
          Jobs.push_back(FuncJob{I, F});
      std::vector<std::vector<ObjFunction>> Funcs(NumModules);
      for (size_t I : Miss)
        Funcs[I].resize(IRs[I]->Functions.size());
      std::vector<std::string> JobErrors(Jobs.size());
      std::vector<double> JobMs(Jobs.size(), 0);
      parallelForEach(Pool, Jobs.size(), [&](size_t J) {
        ScopedTimerMs JobTimer(JobMs[J]);
        const IRModule &IR = *IRs[Jobs[J].Module];
        const auto &F = *IR.Functions[Jobs[J].Func];
        CodeGenResult CG = generateCode(
            IR, F, directivesFor(DBP, F, Config.LinkerReservedRegs),
            Clobbers);
        if (!CG.Success) {
          JobErrors[J] =
              "register allocation failed for " + F.qualifiedName();
          return;
        }
        Funcs[Jobs[J].Module][Jobs[J].Func] = std::move(CG.Obj);
      });
      for (size_t J = 0; J < Jobs.size(); ++J)
        PS.Modules[Jobs[J].Module].Phase2Ms += JobMs[J];
      if (const std::string *E = firstError(JobErrors)) {
        Result.Diags.error(*E);
        return Result;
      }

      // Object assembly, round-tripped through the textual object-file
      // format: the object really is a standalone artifact, like the
      // paper's per-module object files.
      parallelForEach(Pool, Miss.size(), [&](size_t J) {
        size_t I = Miss[J];
        ScopedTimerMs ModuleTimer(PS.Modules[I].Phase2Ms);
        std::string ObjText =
            writeObjectFile(assembleObject(*IRs[I], std::move(Funcs[I])));
        ObjectFile Parsed;
        std::string Error;
        if (!readObjectFile(ObjText, Parsed, Error)) {
          Errors[I] = "object round-trip failed: " + Error;
          return;
        }
        ObjTexts[I] = std::move(ObjText);
        Objects[I] = std::move(Parsed);
      });
      if (const std::string *E = firstError(Errors)) {
        Result.Diags.error(*E);
        return Result;
      }
      for (size_t I : Miss)
        Cache->put(Keys[I], ObjTexts[I]);
    }
    Result.ObjectFiles = ObjTexts;
    for (size_t I = 0; I < NumModules; ++I) {
      PS.Modules[I].Functions =
          static_cast<unsigned>(Objects[I].Functions.size());
      PS.Modules[I].ObjectBytes = ObjTexts[I].size();
      PS.ObjectBytes += ObjTexts[I].size();
      PS.PointsToMs += PS.Modules[I].PointsToMs;
    }
  }

  // ---- Link.
  ScopedTimerMs Timer(PS.LinkMs);
  LinkResult Linked = linkObjects(Objects);
  if (!Linked.Success) {
    std::string Text = "link failed:";
    for (const std::string &E : Linked.Errors)
      Text += "\n  " + E;
    Result.Diags.error(std::move(Text));
    return Result;
  }
  Result.Exe = std::move(Linked.Exe);

  // Snapshot the cache's occupancy/eviction gauges so `--stats` shows
  // whether a budget is biting (and how much it already reclaimed).
  ArtifactCacheStats CS = Cache->stats();
  PS.CacheMemBytes = CS.MemBytes;
  PS.CachePeakMemBytes = CS.PeakMemBytes;
  PS.CacheEvictions = CS.Evictions;
  PS.CacheEvictedBytes = CS.EvictedBytes;
  PS.CacheDiskEvictions = CS.DiskEvictions;

  Result.Ok = true;
  return Result;
}

//===----------------------------------------------------------------------===//
// The canonical request entry point and the facade adapters.
//===----------------------------------------------------------------------===//

Status Pipeline::executeSummary(const BuildRequest &Req,
                                BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.Phase1Ms);
  bool AllCached = !Req.Modules.empty();
  for (const SourceFile &Source : Req.Modules) {
    SummaryResult R = compileSummaryImpl(Source);
    if (!R.ok())
      return std::move(static_cast<Status &>(R));
    if (R.FromCache) {
      ++Resp.Stats.Phase1CacheHits;
      Resp.Stats.CacheBytesSaved += R.SummaryText.size();
    } else {
      ++Resp.Stats.Phase1CacheMisses;
      AllCached = false;
    }
    Resp.Stats.SummaryBytes += R.SummaryText.size();
    Resp.Summaries.push_back(std::move(R.SummaryText));
  }
  Resp.FromCache = AllCached;
  return Status::success();
}

Status Pipeline::executeObject(const BuildRequest &Req,
                               BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.Phase2Ms);
  bool AllCached = !Req.Modules.empty();
  for (const SourceFile &Source : Req.Modules) {
    ObjectResult R = compileObjectImpl(Source, Req.Database);
    if (!R.ok())
      return std::move(static_cast<Status &>(R));
    if (R.FromCache) {
      ++Resp.Stats.Phase2CacheHits;
      Resp.Stats.CacheBytesSaved += R.ObjectText.size();
    } else {
      ++Resp.Stats.Phase2CacheMisses;
      AllCached = false;
    }
    Resp.Stats.ObjectBytes += R.ObjectText.size();
    Resp.Objects.push_back(std::move(R.ObjectText));
  }
  Resp.FromCache = AllCached;
  return Status::success();
}

Status Pipeline::executeLink(const BuildRequest &Req, BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.LinkMs);
  LinkedResult R = linkImpl(Req.Objects);
  Resp.Exe = std::move(R.Exe);
  return std::move(static_cast<Status &>(R));
}

Status Pipeline::executeLint(const BuildRequest &Req, BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  // Lint sees the program the fused build compiles: the user's modules
  // plus the runtime. The runtime's own findings are suppressed — its
  // unreferenced helpers are not the user's dead code — but its
  // summary stays in the graph so calls into it resolve.
  std::vector<SourceFile> AllSources = Req.Modules;
  AllSources.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  std::vector<ModuleSummary> Summaries;
  bool AllCached = !AllSources.empty();
  {
    ScopedTimerMs Timer(Resp.Stats.Phase1Ms);
    for (const SourceFile &Source : AllSources) {
      SummaryResult R = compileSummaryImpl(Source);
      if (!R.ok())
        return std::move(static_cast<Status &>(R));
      ModuleSummary S;
      std::string Error;
      if (!readSummary(R.SummaryText, S, Error))
        return Status::error("bad summary file: " + Error);
      if (R.FromCache) {
        ++Resp.Stats.Phase1CacheHits;
        Resp.Stats.CacheBytesSaved += R.SummaryText.size();
      } else {
        ++Resp.Stats.Phase1CacheMisses;
        AllCached = false;
      }
      Summaries.push_back(std::move(S));
    }
  }
  // Mod/ref verdicts run even under --modref=off: the flag gates what
  // allocation consumes, not what lint reports.
  ScopedTimerMs Timer(Resp.Stats.AnalyzerMs);
  CallProfile CP;
  CallGraph CG(Summaries, CP, Config.PointsTo != PointsToMode::Off);
  ModRefInfo MR = computeModRef(CG, Config.AssumeClosedWorld);
  LintResult LR = runLint(Summaries, CG, MR, "__runtime.mc");
  for (const LintDiagnostic &D : LR.Diagnostics) {
    Resp.Lints.push_back(D.render());
    Resp.LintsJson.push_back(D.renderJson());
  }
  Resp.FromCache = AllCached;
  return Status::success();
}

Status Pipeline::executeFull(const BuildRequest &Req, BuildResponse &Resp) {
  DeltaStats DS;
  BuildResult R = buildImpl(Req.Modules,
                            Req.Profile ? &*Req.Profile : nullptr, &DS);
  Resp.Summaries = std::move(R.SummaryFiles);
  Resp.Database = std::move(R.DatabaseFile);
  Resp.Objects = std::move(R.ObjectFiles);
  Resp.Exe = std::move(R.Exe);
  Resp.Analyzer = R.Analyzer;
  Resp.Delta = DS;
  Resp.Stats = std::move(R.Stats);
  Resp.FromCache = R.Ok && Resp.Stats.Phase1CacheMisses == 0 &&
                   Resp.Stats.AnalyzerCacheMisses == 0 &&
                   Resp.Stats.Phase2CacheMisses == 0;
  return std::move(static_cast<Status &>(R));
}

Result<BuildResponse> Pipeline::execute(const BuildRequest &Req) {
  Result<BuildResponse> R;
  R.Value.Program = Req.Program;
  R.Value.Phase = Req.Phase;
  // Linking is configuration-independent; every other phase's artifacts
  // are keyed on this pipeline's fingerprints, so a request built for a
  // different configuration must be rejected, not silently served.
  if (Req.Phase != BuildPhase::Link &&
      Req.Config.fingerprint() != FullFP) {
    static_cast<Status &>(R) = Status::error(
        "request configuration (fingerprint " + Req.Config.fingerprint() +
            ") does not match this pipeline (fingerprint " + FullFP + ")",
        "config-mismatch");
    return R;
  }
  Status S;
  switch (Req.Phase) {
  case BuildPhase::Summary:
    S = executeSummary(Req, R.Value);
    break;
  case BuildPhase::Analyze:
    S = executeAnalyze(Req, R.Value);
    break;
  case BuildPhase::Object:
    S = executeObject(Req, R.Value);
    break;
  case BuildPhase::Link:
    S = executeLink(Req, R.Value);
    break;
  case BuildPhase::Full:
    S = executeFull(Req, R.Value);
    break;
  case BuildPhase::Lint:
    S = executeLint(Req, R.Value);
    break;
  }
  static_cast<Status &>(R) = std::move(S);
  return R;
}

SummaryResult Pipeline::compileSummary(const SourceFile &Source) {
  Result<BuildResponse> R = execute(BuildRequest::summary(Config, {Source}));
  SummaryResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  if (!R.Value.Summaries.empty())
    Out.SummaryText = std::move(R.Value.Summaries.front());
  Out.FromCache = R.Value.FromCache;
  return Out;
}

DatabaseResult Pipeline::analyze(const std::vector<std::string> &SummaryTexts,
                                 const ProfileData *Profile) {
  BuildRequest Req = BuildRequest::analyze(Config, SummaryTexts);
  if (Profile)
    Req.Profile = *Profile;
  Result<BuildResponse> R = execute(Req);
  DatabaseResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  Out.DatabaseText = std::move(R.Value.Database);
  Out.Stats = R.Value.Analyzer;
  Out.FromCache = R.Value.FromCache;
  Out.Mode = R.Value.Stats.AnalyzerMode;
  Out.Delta = R.Value.Delta;
  return Out;
}

ObjectResult Pipeline::compileObject(const SourceFile &Source,
                                     const std::string &DatabaseText) {
  Result<BuildResponse> R =
      execute(BuildRequest::object(Config, Source, DatabaseText));
  ObjectResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  if (!R.Value.Objects.empty())
    Out.ObjectText = std::move(R.Value.Objects.front());
  Out.FromCache = R.Value.FromCache;
  return Out;
}

LinkedResult Pipeline::link(const std::vector<std::string> &ObjectTexts) {
  Result<BuildResponse> R = execute(BuildRequest::link(ObjectTexts));
  LinkedResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  Out.Exe = std::move(R.Value.Exe);
  return Out;
}

BuildResult Pipeline::build(const std::vector<SourceFile> &Sources,
                            const ProfileData *Profile) {
  BuildRequest Req = BuildRequest::full(Config, Sources);
  if (Profile)
    Req.Profile = *Profile;
  Result<BuildResponse> R = execute(Req);
  BuildResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  Out.Exe = std::move(R.Value.Exe);
  Out.Analyzer = R.Value.Analyzer;
  Out.Stats = std::move(R.Value.Stats);
  Out.SummaryFiles = std::move(R.Value.Summaries);
  Out.DatabaseFile = std::move(R.Value.Database);
  Out.ObjectFiles = std::move(R.Value.Objects);
  return Out;
}

LintRunResult Pipeline::lint(const std::vector<SourceFile> &Sources) {
  Result<BuildResponse> R = execute(BuildRequest::lint(Config, Sources));
  LintRunResult Out;
  static_cast<Status &>(Out) = std::move(static_cast<Status &>(R));
  Out.Lints = std::move(R.Value.Lints);
  Out.LintsJson = std::move(R.Value.LintsJson);
  return Out;
}
