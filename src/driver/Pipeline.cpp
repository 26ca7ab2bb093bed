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
#include "support/Json.h"
#include "support/Record.h"
#include "support/ThreadPool.h"

#include <optional>

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
  OptStats Opt;          ///< optimizeToFixpoint's work.
};

/// Counts one function's register allocation in \p Work.
void addAllocation(WorkStats &Work, const RegAllocResult &RA) {
  Work.RegAllocRounds += RA.Rounds;
  Work.SpilledVRegs += RA.SpillCount;
}

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
    record::add(Out.Opt, optimizeToFixpoint(*F));
  return "";
}

/// The database-dependent optimizer stage: local global promotion with
/// the globals the database promotes excluded (§5: the dedicated
/// register takes over), refined by the module's points-to facts.
OptStats finishForDirectives(IRModule &IR, const ProgramDatabase *DB,
                             bool LocalGlobalPromotion,
                             const GlobalAliasFacts *Alias) {
  OptStats Stats;
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
    record::add(Stats, finishOptimization(*F, Options));
  }
  return Stats;
}

/// Phase 1's trial code generation of one function, for the summary's
/// register-need estimate and caller-saves footprint (§6, §7.6.2).
std::optional<TrialCodeGenInfo> trialCodeGen(const IRModule &IR,
                                             const IRFunction &F,
                                             WorkStats &Work) {
  CodeGenResult CG = generateCode(IR, F, ProcDirectives());
  addAllocation(Work, CG.RA);
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

/// The first non-empty error, in slot order, so the reported error does
/// not depend on worker scheduling.
const std::string *firstError(const std::vector<std::string> &Errors) {
  for (const std::string &E : Errors)
    if (!E.empty())
      return &E;
  return nullptr;
}

/// The per-function code-generation fan-out both phases share: runs
/// \p Body(Module, Function, Work) for every function of every module in
/// \p Mods as one flattened cross-module work list on \p Pool, and
/// charges each call's time to its module's \p Ms counter and its Work
/// slot to \p PS once the workers joined. \p Body returns an error, or
/// "" on success; the first error in (module, function) order is
/// returned.
std::string forEachFunction(
    ThreadPool &Pool, const std::vector<size_t> &Mods,
    const std::vector<std::unique_ptr<IRModule>> &IRs, PipelineStats &PS,
    double ModulePipelineStats::*Ms,
    const std::function<std::string(size_t, size_t, WorkStats &)> &Body) {
  struct FuncJob {
    size_t Module = 0;
    size_t Func = 0;
  };
  std::vector<FuncJob> Jobs;
  for (size_t I : Mods)
    for (size_t F = 0; F < IRs[I]->Functions.size(); ++F)
      Jobs.push_back(FuncJob{I, F});
  std::vector<std::string> Errors(Jobs.size());
  std::vector<double> JobMs(Jobs.size(), 0);
  std::vector<WorkStats> JobWork(Jobs.size());
  parallelForEach(Pool, Jobs.size(), [&](size_t J) {
    ScopedTimerMs Timer(JobMs[J]);
    Errors[J] = Body(Jobs[J].Module, Jobs[J].Func, JobWork[J]);
  });
  for (size_t J = 0; J < Jobs.size(); ++J) {
    PS.Modules[Jobs[J].Module].*Ms += JobMs[J];
    record::add(PS.Work, JobWork[J]);
  }
  const std::string *E = firstError(Errors);
  return E ? *E : std::string();
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

std::string summaryKey(const std::string &CompileFP,
                       const SourceFile &Source) {
  return hashParts({"summary", CompileFP, Source.Name, Source.Text});
}

/// \p Sources plus the MiniC runtime module, the program every build
/// and lint links against.
std::vector<SourceFile> withRuntime(std::vector<SourceFile> Sources) {
  Sources.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  return Sources;
}

std::string objectKey(const std::string &CompileFP,
                      const SourceFile &Source, const std::string &Slice) {
  return hashParts({"object", CompileFP, Source.Name, Source.Text, Slice});
}

/// Links \p Objects into \p Exe, listing every linker error.
Status linkInto(const std::vector<ObjectFile> &Objects, Executable &Exe) {
  LinkResult Linked = linkObjects(Objects);
  if (!Linked.Success) {
    std::string Text = "link failed:";
    for (const std::string &E : Linked.Errors)
      Text += "\n  " + E;
    return Status::error(std::move(Text));
  }
  Exe = std::move(Linked.Exe);
  return Status::success();
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
// The two compiler phases, one body each.
//===----------------------------------------------------------------------===//

/// The modules one request compiles, in request order, and what each
/// phase produced for them so far. The phase-granular requests run one
/// phase over a Batch; the fused build runs both over the same Batch, so
/// phase 2 finds phase 1's IR files (and any ASTs) in it.
struct Pipeline::Batch {
  Batch(std::vector<SourceFile> Sources_, unsigned Threads,
        PipelineStats &PS_)
      : Sources(std::move(Sources_)), PS(PS_), ASTs(Sources.size()),
        FrontEndRan(Sources.size(), 0), ModuleDiags(Sources.size()),
        Summaries(Sources.size()), SummaryTexts(Sources.size()),
        IRFiles(Sources.size()), Objects(Sources.size()),
        ObjectTexts(Sources.size()), Pool(Threads) {
    PS.ThreadsUsed = Threads;
    PS.Modules.resize(Sources.size());
    for (size_t I = 0; I < Sources.size(); ++I)
      PS.Modules[I].Name = Sources[I].Name;
  }

  size_t size() const { return Sources.size(); }

  /// Front end, on demand: parses the modules of \p Need not parsed
  /// yet. A module whose artifacts all come out of the cache is never
  /// parsed (the cached artifact proves the source it hashes compiled
  /// cleanly). Each module gets its own diagnostic engine; on failure
  /// they merge in module order, so the rendered text does not depend
  /// on worker scheduling.
  Status ensureFrontEnd(const std::vector<size_t> &Need) {
    std::vector<size_t> Run;
    for (size_t I : Need)
      if (!FrontEndRan[I])
        Run.push_back(I);
    if (!Run.empty()) {
      ScopedTimerMs Timer(PS.FrontEndMs);
      parallelForEach(Pool, Run.size(), [&](size_t J) {
        size_t I = Run[J];
        ScopedTimerMs ModuleTimer(PS.Modules[I].FrontEndMs);
        ASTs[I] = frontEnd(Sources[I], ModuleDiags[I]);
        FrontEndRan[I] = 1;
      });
    }
    for (size_t I : Need)
      if (!ASTs[I]) {
        Status S;
        for (const DiagnosticEngine &D : ModuleDiags)
          S.Diags.addAll(D);
        return S;
      }
    return Status::success();
  }

  std::vector<SourceFile> Sources;
  PipelineStats &PS;
  std::vector<std::unique_ptr<ModuleAST>> ASTs;
  std::vector<char> FrontEndRan;
  std::vector<DiagnosticEngine> ModuleDiags;
  /// Phase 1's output: the summaries and their files.
  std::vector<ModuleSummary> Summaries;
  std::vector<std::string> SummaryTexts;
  /// Figure 1's IR files: the IR as optimizeToFixpoint left it, plus its
  /// points-to facts. Phase 1 keeps one per module it compiles only when
  /// KeepIRFiles is set (the fused build); phase 2 resumes from it.
  bool KeepIRFiles = false;
  std::vector<LoweredModule> IRFiles;
  /// Phase 2's output: the objects and their files.
  std::vector<ObjectFile> Objects;
  std::vector<std::string> ObjectTexts;
  /// Last, so its workers are joined before the data they touch goes.
  ThreadPool Pool;
};

Status Pipeline::summarize(Batch &B) {
  PipelineStats &PS = B.PS;
  const size_t N = B.size();
  std::vector<std::string> Keys(N);
  std::vector<size_t> Miss;
  for (size_t I = 0; I < N; ++I) {
    Keys[I] = summaryKey(CompileFP, B.Sources[I]);
    if (auto Entry = Cache->get(Keys[I])) {
      ModuleSummary Parsed;
      std::string Error;
      ++PS.SummariesParsed;
      if (readSummary(*Entry, Parsed, Error) &&
          Parsed.ConfigFingerprint == CompileFP) {
        B.SummaryTexts[I] = std::move(*Entry);
        B.Summaries[I] = std::move(Parsed);
        ++PS.Phase1CacheHits;
        PS.Modules[I].Phase1FromCache = true;
        PS.CacheBytesSaved += B.SummaryTexts[I].size();
        continue;
      }
      Cache->invalidate(Keys[I]); // Corrupt or stale entry: recompute.
    }
    ++PS.Phase1CacheMisses;
    Miss.push_back(I);
  }

  if (!Miss.empty()) {
    if (Status S = B.ensureFrontEnd(Miss); !S.ok())
      return S;
    // Lowering, then the database-free finish: phase 1 optimizes as if
    // no global were promoted. Each module's worker counts its work in
    // the module's slot.
    std::vector<WorkStats> Work(N);
    std::vector<std::unique_ptr<IRModule>> IRs(N);
    std::vector<std::string> Errors(N);
    parallelForEach(B.Pool, Miss.size(), [&](size_t J) {
      size_t I = Miss[J];
      ScopedTimerMs ModuleTimer(PS.Modules[I].Phase1Ms);
      LoweredModule &L = B.IRFiles[I];
      std::string Problem = lowerModule(*B.ASTs[I], Config.PointsTo, L);
      PS.Modules[I].PointsToMs += L.PointsToMs;
      if (!Problem.empty()) {
        Errors[I] = "phase 1 IR verification failed: " + Problem;
        return;
      }
      B.ASTs[I].reset(); // Phase 2 resumes from the IR file instead.
      IRs[I] = B.KeepIRFiles ? L.IR->clone() : std::move(L.IR);
      record::add(Work[I].Opt, L.Opt);
      record::add(Work[I].Opt,
                  finishForDirectives(*IRs[I], nullptr,
                                      Config.LocalGlobalPromotion, L.PT.get()));
    });
    if (const std::string *E = firstError(Errors))
      return Status::error(*E);

    // Trial code generation for the register-need estimates and the
    // caller-saves footprints (§6, §7.6.2).
    std::vector<std::vector<std::optional<TrialCodeGenInfo>>> Trial(N);
    for (size_t I : Miss)
      Trial[I].resize(IRs[I]->Functions.size());
    forEachFunction(B.Pool, Miss, IRs, PS, &ModulePipelineStats::Phase1Ms,
                    [&](size_t I, size_t F, WorkStats &W) {
                      Trial[I][F] =
                          trialCodeGen(*IRs[I], *IRs[I]->Functions[F], W);
                      return std::string();
                    });

    // Summary emission, stamped with the compile fingerprint. The text
    // is written once, for the cache and the response; the analyzer gets
    // the summary itself (readSummary(writeSummary(S)) == S).
    std::vector<GPGBuildStats> GPGStats(N);
    parallelForEach(B.Pool, Miss.size(), [&](size_t J) {
      size_t I = Miss[J];
      ScopedTimerMs ModuleTimer(PS.Modules[I].Phase1Ms);
      std::map<std::string, TrialCodeGenInfo> Estimates;
      for (size_t F = 0; F < Trial[I].size(); ++F)
        if (Trial[I][F])
          Estimates[IRs[I]->Functions[F]->Name] = *Trial[I][F];
      ModuleSummary Summary = buildModuleSummary(*IRs[I], Estimates);
      if (B.IRFiles[I].PT)
        B.IRFiles[I].PT->applyToSummary(Summary);
      // GPG mode additionally attaches the module's composable points-to
      // residue (summary format v4) for the analyzer's bottom-up
      // composition.
      if (Config.PointsTo == PointsToMode::GPG) {
        ScopedTimerMs GPGTimer(PS.Modules[I].PointsToMs);
        GPGStats[I] = buildGPGSummary(*IRs[I], Summary);
      }
      Summary.ConfigFingerprint = CompileFP;
      B.SummaryTexts[I] = writeSummary(Summary);
      B.Summaries[I] = std::move(Summary);
    });
    for (size_t I : Miss) {
      Cache->put(Keys[I], B.SummaryTexts[I]);
      record::add(PS.Work, Work[I]);
      if (const ModulePointsTo *PT = B.IRFiles[I].PT.get()) {
        PS.PointsToConstraints += PT->stats().Constraints;
        PS.PointsToIterations += PT->stats().Iterations;
      }
      PS.GPGUpdates += GPGStats[I].Updates;
      PS.GPGCallSites += GPGStats[I].CallSites;
      if (!B.KeepIRFiles)
        B.IRFiles[I] = LoweredModule();
    }
  }
  for (size_t I = 0; I < N; ++I) {
    PS.Modules[I].SummaryBytes = B.SummaryTexts[I].size();
    PS.SummaryBytes += B.SummaryTexts[I].size();
  }
  return Status::success();
}

Status Pipeline::compileObjects(Batch &B, const ProgramDatabase *DB,
                                const std::vector<std::string> &Keys) {
  PipelineStats &PS = B.PS;
  const size_t N = B.size();
  std::vector<size_t> Miss;
  for (size_t I = 0; I < N; ++I) {
    if (auto Entry = Cache->get(Keys[I])) {
      ObjectFile Parsed;
      std::string Error;
      if (readObjectFile(*Entry, Parsed, Error)) {
        B.ObjectTexts[I] = std::move(*Entry);
        B.Objects[I] = std::move(Parsed);
        B.IRFiles[I] = LoweredModule();
        ++PS.Phase2CacheHits;
        PS.Modules[I].Phase2FromCache = true;
        PS.CacheBytesSaved += B.ObjectTexts[I].size();
        continue;
      }
      Cache->invalidate(Keys[I]); // Corrupt entry: recompute.
    }
    ++PS.Phase2CacheMisses;
    Miss.push_back(I);
  }

  if (!Miss.empty()) {
    // A miss resumes from the module's IR file when phase 1 left one;
    // any other module lowers from its AST. Both give the same IR,
    // because lowering is a function of the source alone.
    std::vector<size_t> Relower;
    for (size_t I : Miss)
      if (!B.IRFiles[I].IR)
        Relower.push_back(I);
    if (Status S = B.ensureFrontEnd(Relower); !S.ok())
      return S;
    std::vector<WorkStats> Work(N); // One slot per module's worker.
    std::vector<std::unique_ptr<IRModule>> IRs(N);
    std::vector<std::string> Errors(N);
    parallelForEach(B.Pool, Miss.size(), [&](size_t J) {
      size_t I = Miss[J];
      ScopedTimerMs ModuleTimer(PS.Modules[I].Phase2Ms);
      LoweredModule L = std::move(B.IRFiles[I]);
      if (!L.IR) {
        std::string Problem = lowerModule(*B.ASTs[I], Config.PointsTo, L);
        PS.Modules[I].PointsToMs += L.PointsToMs;
        if (!Problem.empty()) {
          Errors[I] = "phase 2 IR verification failed: " + Problem;
          return;
        }
        record::add(Work[I].Opt, L.Opt);
      }
      record::add(Work[I].Opt,
                  finishForDirectives(*L.IR, DB, Config.LocalGlobalPromotion,
                                      L.PT.get()));
      auto Problems = verifyModule(*L.IR);
      if (!Problems.empty()) {
        Errors[I] = "phase 2 IR verification failed: " + Problems[0];
        return;
      }
      IRs[I] = std::move(L.IR);
    });
    if (const std::string *E = firstError(Errors))
      return Status::error(*E);

    // Code generation; each function writes into its (module, function)
    // slot, so object files come out byte-identical at any thread count.
    CallClobberResolver Clobbers =
        clobbersFor(DB, Config.CallerSavePropagation);
    std::vector<std::vector<ObjFunction>> Funcs(N);
    for (size_t I : Miss)
      Funcs[I].resize(IRs[I]->Functions.size());
    std::string CodeGenError = forEachFunction(
        B.Pool, Miss, IRs, PS, &ModulePipelineStats::Phase2Ms,
        [&](size_t I, size_t F, WorkStats &W) {
          const IRModule &IR = *IRs[I];
          const IRFunction &Fn = *IR.Functions[F];
          CodeGenResult CG = generateCode(
              IR, Fn, directivesFor(DB, Fn, Config.LinkerReservedRegs),
              Clobbers);
          addAllocation(W, CG.RA);
          if (!CG.Success)
            return "register allocation failed for " + Fn.qualifiedName();
          Funcs[I][F] = std::move(CG.Obj);
          return std::string();
        });
    if (!CodeGenError.empty())
      return Status::error(CodeGenError);

    // Object assembly. The object is a standalone artifact, like the
    // paper's per-module object files: its text is written once, for
    // the cache and the response, and the linker gets the object itself
    // (readObjectFile(writeObjectFile(O)) == O).
    parallelForEach(B.Pool, Miss.size(), [&](size_t J) {
      size_t I = Miss[J];
      ScopedTimerMs ModuleTimer(PS.Modules[I].Phase2Ms);
      B.Objects[I] = assembleObject(*IRs[I], std::move(Funcs[I]));
      B.ObjectTexts[I] = writeObjectFile(B.Objects[I]);
    });
    for (size_t I : Miss) {
      Cache->put(Keys[I], B.ObjectTexts[I]);
      record::add(PS.Work, Work[I]);
    }
  }
  for (size_t I = 0; I < N; ++I) {
    PS.Modules[I].Functions =
        static_cast<unsigned>(B.Objects[I].Functions.size());
    PS.Modules[I].ObjectBytes = B.ObjectTexts[I].size();
    PS.ObjectBytes += B.ObjectTexts[I].size();
  }
  return Status::success();
}

void Pipeline::analyzeCached(const SummarySet &Summaries,
                             const std::vector<std::string> &SummaryTexts,
                             const ProfileData *Profile, ProgramDatabase &DB,
                             BuildResponse &Resp) {
  PipelineStats &PS = Resp.Stats;
  static const CallProfile NoProfile;
  const CallProfile &CP = Config.UseProfile && Profile ? *Profile : NoProfile;
  std::string ProfileText = json::encode(CP).dump();
  std::vector<std::string_view> Parts{"database", AnalyzerFP, ProfileText};
  for (const std::string &T : SummaryTexts)
    Parts.push_back(T);
  std::string Key = hashParts(Parts);

  // The entry is the encoded AnalyzerStats on one line (a cached run
  // still reports its counters), then the database text. An entry
  // missing any listed field — written before a counter was added —
  // is a miss. The text comes from outside this process, so parsing it
  // is the validity check.
  if (auto Entry = Cache->get(Key)) {
    AnalyzerStats CachedStats;
    std::string_view Body;
    if (json::readHeaderLine(*Entry, CachedStats, Body)) {
      std::string CachedDb(Body), ParseError;
      ProgramDatabase Parsed;
      if (ProgramDatabase::deserialize(CachedDb, Parsed, ParseError) &&
          Parsed.ConfigFingerprint == FullFP) {
        DB = std::move(Parsed);
        Resp.Database = std::move(CachedDb);
        Resp.Analyzer = CachedStats;
        PS.AnalyzerMode = "cached";
        ++PS.AnalyzerCacheHits;
        PS.CacheBytesSaved += Resp.Database.size();
        PS.DatabaseBytes = Resp.Database.size();
        return;
      }
    }
    Cache->invalidate(Key); // Corrupt or stale entry: recompute.
  }

  ++PS.AnalyzerCacheMisses;
  PS.AnalyzerMode = "full";
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
    Resp.Analyzer = O.Stats;
    Resp.Delta = O.Delta;
    if (Resp.Delta.Mode == DeltaMode::Incremental)
      PS.AnalyzerMode = "delta";
  } else {
    Produced = runAnalyzer(*Summaries, Config.analyzerOptions(), CP,
                           &Resp.Analyzer);
  }
  // The database file (§2) is written once; phase 2 reads the produced
  // database itself, which the tests prove equal to the file's parse.
  Produced.ConfigFingerprint = FullFP;
  Resp.Database = Produced.serialize();
  PS.DatabaseBytes = Resp.Database.size();
  DB = std::move(Produced);
  // The entry's bytes are a function of the inputs: its timings are 0,
  // which is what a hit reports for the sub-phases it skipped.
  AnalyzerStats Stored = Resp.Analyzer;
  record::zeroTimings(Stored);
  Cache->put(Key, json::encode(Stored).dump() + "\n" + Resp.Database);
}

Status Pipeline::executeAnalyze(const BuildRequest &Req,
                                BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.AnalyzerMs);
  // Parsed through the session: only texts it has not seen are read.
  SummarySet Summaries;
  auto Check = [this](const ModuleSummary &S) -> std::string {
    if (S.ConfigFingerprint.empty() || S.ConfigFingerprint == CompileFP)
      return "";
    return "summary for module '" + S.Module +
           "' was produced under a different compiler configuration "
           "(fingerprint " +
           S.ConfigFingerprint + ", expected " + CompileFP +
           "); re-run phase 1 with matching options";
  };
  if (Status S = Session->parseSummaries(Req.Summaries, Check, Summaries,
                                         Resp.Stats.SummariesParsed);
      !S.ok())
    return S;

  ProgramDatabase DB;
  analyzeCached(Summaries, Req.Summaries,
                Req.Profile ? &*Req.Profile : nullptr, DB, Resp);
  Resp.FromCache = Resp.Stats.AnalyzerCacheHits > 0;
  return Status::success();
}

//===----------------------------------------------------------------------===//
// The fused incremental build.
//===----------------------------------------------------------------------===//

Status Pipeline::executeFull(const BuildRequest &Req, BuildResponse &Resp) {
  PipelineStats &PS = Resp.Stats;
  ScopedTimerMs TotalTimer(PS.TotalMs);
  Batch B(withRuntime(Req.Modules), resolveThreadCount(Config.NumThreads),
          PS);
  B.KeepIRFiles = true;
  const size_t NumModules = B.size();

  // ---- Compiler first phase: optimize, trial codegen, summary file.
  // Cache key: compile fingerprint x module name x source text. Every
  // module phase 1 compiles also leaves its IR file (Figure 1); only
  // finishOptimization reads the database, so phase 2 resumes from
  // there instead of lowering the module again.
  ProgramDatabase DB;
  const ProgramDatabase *DBP = nullptr; // Set once the analyzer ran.
  SummarySet Summaries; // Phase 1's, shared with the analyzer session.
  if (Config.Ipra) {
    {
      ScopedTimerMs Timer(PS.Phase1Ms);
      if (Status S = summarize(B); !S.ok())
        return S;
      Resp.Summaries = B.SummaryTexts;
    }

    // ---- Program analyzer: the one whole-program step. Web discovery
    // inside it fans out per global onto the configured thread count
    // (output is byte-identical at any value); the remaining stages are
    // sequential. Cache key: analyzer fingerprint x profile x every
    // summary text.
    ScopedTimerMs Timer(PS.AnalyzerMs);
    Summaries = std::make_shared<const std::vector<ModuleSummary>>(
        std::move(B.Summaries));
    analyzeCached(Summaries, B.SummaryTexts,
                  Req.Profile ? &*Req.Profile : nullptr, DB, Resp);
    DBP = &DB;
  }

  // ---- Compiler second phase: per-module compilation to objects.
  // Cache key: compile fingerprint x module name x source text x the
  // module's database slice — after an edit, only modules whose slice
  // the analyzer actually moved recompile.
  {
    ScopedTimerMs Timer(PS.Phase2Ms);
    std::vector<std::string> Keys(NumModules);
    for (size_t I = 0; I < NumModules; ++I)
      Keys[I] = objectKey(CompileFP, B.Sources[I],
                          DBP ? DB.sliceFor((*Summaries)[I],
                                            Config.CallerSavePropagation)
                              : std::string());
    if (Status S = compileObjects(B, DBP, Keys); !S.ok())
      return S;
    Resp.Objects = B.ObjectTexts;
    for (const ModulePipelineStats &M : PS.Modules)
      PS.PointsToMs += M.PointsToMs;
  }

  // ---- Link.
  {
    ScopedTimerMs Timer(PS.LinkMs);
    if (Status S = linkInto(B.Objects, Resp.Exe); !S.ok())
      return S;
  }

  // Snapshot the cache's occupancy/eviction gauges so `--stats` shows
  // whether a budget is biting (and how much it already reclaimed).
  PS.Cache = Cache->stats();
  Resp.FromCache = PS.Phase1CacheMisses == 0 &&
                   PS.AnalyzerCacheMisses == 0 && PS.Phase2CacheMisses == 0;
  return Status::success();
}

//===----------------------------------------------------------------------===//
// The request entry point, and the two adapters the benchmark calls.
//===----------------------------------------------------------------------===//

Status Pipeline::executeSummary(const BuildRequest &Req,
                                BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.Phase1Ms);
  Batch B(Req.Modules, resolveThreadCount(Config.NumThreads), Resp.Stats);
  if (Status S = summarize(B); !S.ok())
    return S;
  Resp.Summaries = std::move(B.SummaryTexts);
  Resp.FromCache = B.size() && Resp.Stats.Phase1CacheMisses == 0;
  return Status::success();
}

Status Pipeline::executeObject(const BuildRequest &Req,
                               BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.Phase2Ms);
  ProgramDatabase DB;
  const ProgramDatabase *DBP = nullptr; // No database: standard linkage.
  if (!Req.Database.empty()) {
    DBP = &DB;
    std::string Error;
    if (!ProgramDatabase::deserialize(Req.Database, DB, Error))
      return Status::error("bad program database: " + Error);
    if (!DB.ConfigFingerprint.empty() && DB.ConfigFingerprint != FullFP)
      return Status::error(
          "bad program database: database was produced under a different "
          "configuration (fingerprint " +
          DB.ConfigFingerprint + ", expected " + FullFP +
          "); re-run the analyzer with matching options");
  }
  // A standalone request has no summaries to compute the precise
  // database slices from; the whole database text stands in (the fused
  // build keys on ProgramDatabase::sliceFor instead).
  Batch B(Req.Modules, resolveThreadCount(Config.NumThreads), Resp.Stats);
  std::vector<std::string> Keys;
  for (const SourceFile &Source : B.Sources)
    Keys.push_back(objectKey(CompileFP, Source, Req.Database));
  if (Status S = compileObjects(B, DBP, Keys); !S.ok())
    return S;
  Resp.Objects = std::move(B.ObjectTexts);
  Resp.FromCache = B.size() && Resp.Stats.Phase2CacheMisses == 0;
  return Status::success();
}

Status Pipeline::executeLink(const BuildRequest &Req, BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  ScopedTimerMs Timer(Resp.Stats.LinkMs);
  std::vector<ObjectFile> Parsed;
  for (const std::string &Text : Req.Objects) {
    ObjectFile Obj;
    std::string Error;
    if (!readObjectFile(Text, Obj, Error))
      return Status::error("bad object file: " + Error);
    Parsed.push_back(std::move(Obj));
  }
  return linkInto(Parsed, Resp.Exe);
}

Status Pipeline::executeLint(const BuildRequest &Req, BuildResponse &Resp) {
  ScopedTimerMs Total(Resp.Stats.TotalMs);
  // Lint sees the program the fused build compiles: the user's modules
  // plus the runtime. The runtime's own findings are suppressed — its
  // unreferenced helpers are not the user's dead code — but its
  // summary stays in the graph so calls into it resolve.
  Batch B(withRuntime(Req.Modules), resolveThreadCount(Config.NumThreads),
          Resp.Stats);
  {
    ScopedTimerMs Timer(Resp.Stats.Phase1Ms);
    if (Status S = summarize(B); !S.ok())
      return S;
  }
  // Mod/ref verdicts run even under --modref=off: the flag gates what
  // allocation consumes, not what lint reports.
  ScopedTimerMs Timer(Resp.Stats.AnalyzerMs);
  CallGraph CG(B.Summaries, CallProfile(),
               Config.PointsTo != PointsToMode::Off);
  ModRefInfo MR = computeModRef(CG, Config.AssumeClosedWorld);
  LintResult LR = runLint(B.Summaries, CG, MR, "__runtime.mc");
  for (const LintDiagnostic &D : LR.Diagnostics) {
    Resp.Lints.push_back(D.render());
    Resp.LintsJson.push_back(D.renderJson());
  }
  Resp.FromCache = Resp.Stats.Phase1CacheMisses == 0;
  return Status::success();
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
  Out.Delta = R.Value.Delta;
  Out.Stats = std::move(R.Value.Stats);
  Out.SummaryFiles = std::move(R.Value.Summaries);
  Out.DatabaseFile = std::move(R.Value.Database);
  Out.ObjectFiles = std::move(R.Value.Objects);
  return Out;
}
