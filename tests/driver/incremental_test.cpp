//===- incremental_test.cpp - Incremental pipeline cache tests ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
//
// The invalidation matrix for the content-addressed artifact cache:
// no-op rebuilds hit everything; a source edit reruns phase 1 for
// exactly the edited module and phase 2 for exactly the modules whose
// database slice moved; config flips invalidate exactly the artifacts
// they can influence; corrupt or deleted cache entries are recomputed.
// In every case the incremental build's artifacts are byte-identical to
// a cold build, at 1 and 8 threads.
//
//===----------------------------------------------------------------------===//

#include "RecordLeaves.h"

#include "core/DeltaAnalyzer.h"
#include "driver/Pipeline.h"
#include "summary/SummaryDiff.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace ipra;

namespace {

namespace fs = std::filesystem;

/// A self-cleaning per-test scratch directory for the disk cache.
class TempDir {
public:
  explicit TempDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("ipra_incremental_" + Tag + "_" + std::to_string(::getpid()));
    std::error_code EC;
    fs::remove_all(Path, EC);
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }

private:
  fs::path Path;
};

/// An 8-module program: a call chain f0 -> f1 -> ... -> f6 where every
/// module accumulates into its own global, plus a main module driving
/// the chain from a loop. Deep enough that a register-pressure change
/// in the middle of the chain moves the analyzer's FREE sets (and so
/// the database slices) of the modules above it.
std::vector<SourceFile> corpus() {
  std::vector<SourceFile> Sources;
  const int Chain = 7;
  for (int I = 0; I < Chain; ++I) {
    std::string Name = "mod" + std::to_string(I) + ".mc";
    std::string G = "g" + std::to_string(I);
    std::string Text = "int " + G + ";\n";
    if (I + 1 < Chain) {
      std::string Next = "f" + std::to_string(I + 1);
      Text += "int " + Next + "(int);\n";
      Text += "int f" + std::to_string(I) + "(int x) { " + G + " = " + G +
              " + x; return " + Next + "(x) + " + G + "; }\n";
    } else {
      Text += "int f" + std::to_string(I) + "(int x) { " + G + " = " + G +
              " + x; return " + G + "; }\n";
    }
    Sources.push_back(SourceFile{Name, Text});
  }
  Sources.push_back(SourceFile{
      "main.mc", "int f0(int);\n"
                 "int main() {\n"
                 "  int r = 0;\n"
                 "  for (int i = 1; i <= 6; i = i + 1) r = r + f0(i);\n"
                 "  print(r);\n"
                 "  return 0;\n"
                 "}\n"});
  return Sources;
}

/// Replaces one module's text, asserting the module exists.
std::vector<SourceFile> withEdit(std::vector<SourceFile> Sources,
                                 const std::string &Name,
                                 const std::string &NewText) {
  for (SourceFile &S : Sources)
    if (S.Name == Name) {
      EXPECT_NE(S.Text, NewText) << "edit must change the source";
      S.Text = NewText;
      return Sources;
    }
  ADD_FAILURE() << "no module named " << Name;
  return Sources;
}

void expectSameArtifacts(const BuildResult &A, const BuildResult &B) {
  EXPECT_EQ(A.SummaryFiles, B.SummaryFiles);
  EXPECT_EQ(A.DatabaseFile, B.DatabaseFile);
  EXPECT_EQ(A.ObjectFiles, B.ObjectFiles);
}

//===--------------------------------------------------------------------===//
// The invalidation matrix.
//===--------------------------------------------------------------------===//

TEST(IncrementalTest, NoopRebuildHitsEveryPhase) {
  Pipeline P(PipelineConfig::configC());
  BuildResult Cold = P.build(corpus());
  ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();
  const size_t N = Cold.Stats.Modules.size(); // 8 sources + runtime.
  ASSERT_EQ(N, 9u);
  EXPECT_EQ(Cold.Stats.Phase1CacheHits, 0u);
  EXPECT_EQ(Cold.Stats.Phase1CacheMisses, N);
  EXPECT_EQ(Cold.Stats.AnalyzerCacheMisses, 1u);
  EXPECT_EQ(Cold.Stats.Phase2CacheMisses, N);

  BuildResult Warm = P.build(corpus());
  ASSERT_TRUE(Warm.ok()) << Warm.Diags.text();
  EXPECT_EQ(Warm.Stats.Phase1CacheHits, N);
  EXPECT_EQ(Warm.Stats.Phase1CacheMisses, 0u);
  EXPECT_EQ(Warm.Stats.AnalyzerCacheHits, 1u);
  EXPECT_EQ(Warm.Stats.Phase2CacheHits, N);
  EXPECT_EQ(Warm.Stats.Phase2CacheMisses, 0u);
  EXPECT_GT(Warm.Stats.CacheBytesSaved, 0u);
  for (const ModulePipelineStats &M : Warm.Stats.Modules) {
    EXPECT_TRUE(M.Phase1FromCache) << M.Name;
    EXPECT_TRUE(M.Phase2FromCache) << M.Name;
  }
  expectSameArtifacts(Cold, Warm);
  // The run result matches too.
  EXPECT_EQ(runExecutable(Cold.Exe).Output, runExecutable(Warm.Exe).Output);
  // The cached-run analyzer statistics survive.
  EXPECT_EQ(Warm.Analyzer.EligibleGlobals, Cold.Analyzer.EligibleGlobals);
  EXPECT_EQ(Warm.Analyzer.ColoredWebs, Cold.Analyzer.ColoredWebs);
  // The stats report shows the cache line.
  EXPECT_NE(Warm.Stats.toString(Warm.Analyzer, Warm.Delta)
                .find("cache: phase1 9/9"),
            std::string::npos);
}

TEST(IncrementalTest, NeutralEditRecompilesOnlyTheEditedModule) {
  Pipeline P(PipelineConfig::configC());
  BuildResult Cold = P.build(corpus());
  ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();
  const size_t N = Cold.Stats.Modules.size();

  // An allocation-neutral edit: commute the accumulation in mod3. The
  // summary's reference sets and frequencies are unchanged, so the
  // database cannot move and phase 2 reruns for mod3 alone.
  auto Edited = withEdit(corpus(), "mod3.mc",
                         "int g3;\n"
                         "int f4(int);\n"
                         "int f3(int x) { g3 = x + g3; "
                         "return f4(x) + g3; }\n");
  BuildResult Warm = P.build(Edited);
  ASSERT_TRUE(Warm.ok()) << Warm.Diags.text();
  EXPECT_EQ(Warm.Stats.Phase1CacheMisses, 1u);
  EXPECT_EQ(Warm.Stats.Phase1CacheHits, N - 1);
  EXPECT_EQ(Warm.Stats.Phase2CacheMisses, 1u);
  EXPECT_EQ(Warm.Stats.Phase2CacheHits, N - 1);
  for (const ModulePipelineStats &M : Warm.Stats.Modules) {
    EXPECT_EQ(M.Phase1FromCache, M.Name != "mod3.mc") << M.Name;
    EXPECT_EQ(M.Phase2FromCache, M.Name != "mod3.mc") << M.Name;
  }

  // Byte-identical to a cold build of the edited program.
  Pipeline Fresh(PipelineConfig::configC());
  BuildResult Ref = Fresh.build(Edited);
  ASSERT_TRUE(Ref.ok()) << Ref.Diags.text();
  expectSameArtifacts(Ref, Warm);
}

/// A register-pressure edit in the middle of the call chain: mod3 now
/// needs far more registers, which moves the FREE sets the analyzer
/// publishes for its ancestors — their database slices change even
/// though their sources did not.
std::vector<SourceFile> pressureEdit() {
  return withEdit(
      corpus(), "mod3.mc",
      "int g3;\n"
      "int f4(int);\n"
      "int f3(int x) {\n"
      "  int a = x * 3; int b = a + x; int c = b * a; int d = c + b;\n"
      "  int e = d * 2 + a; int h = e + c * d;\n"
      "  g3 = g3 + a + b + c + d + e + h;\n"
      "  return f4(x) + g3 + a * b + c * d + e * h;\n"
      "}\n");
}

TEST(IncrementalTest, PressureEditRecompilesExactlyTheMovedSlices) {
  PipelineConfig Config = PipelineConfig::configC();
  Pipeline P(Config);
  BuildResult Cold = P.build(corpus());
  ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();

  auto Edited = pressureEdit();
  BuildResult Warm = P.build(Edited);
  ASSERT_TRUE(Warm.ok()) << Warm.Diags.text();

  // Phase 1 reran for the edited module alone.
  EXPECT_EQ(Warm.Stats.Phase1CacheMisses, 1u);

  // Compute each module's database slice under both databases; the
  // phase-2 recompile set must be exactly {edited} union {slice moved}.
  ProgramDatabase OldDB, NewDB;
  std::string Error;
  ASSERT_TRUE(ProgramDatabase::deserialize(Cold.DatabaseFile, OldDB, Error))
      << Error;
  ASSERT_TRUE(ProgramDatabase::deserialize(Warm.DatabaseFile, NewDB, Error))
      << Error;
  size_t MovedSlices = 0;
  for (size_t I = 0; I < Warm.SummaryFiles.size(); ++I) {
    ModuleSummary S;
    ASSERT_TRUE(readSummary(Warm.SummaryFiles[I], S, Error)) << Error;
    bool IsEdited = S.Module == "mod3.mc";
    bool SliceMoved =
        OldDB.sliceFor(S, Config.CallerSavePropagation) !=
        NewDB.sliceFor(S, Config.CallerSavePropagation);
    MovedSlices += SliceMoved && !IsEdited;
    EXPECT_EQ(Warm.Stats.Modules[I].Phase2FromCache,
              !IsEdited && !SliceMoved)
        << S.Module;
  }
  // The edit must actually have moved at least one other module's
  // slice, or this test exercises nothing beyond the neutral-edit case.
  EXPECT_GT(MovedSlices, 0u);
  EXPECT_EQ(Warm.Stats.Phase2CacheMisses, 1u + MovedSlices);

  Pipeline Fresh(Config);
  BuildResult Ref = Fresh.build(Edited);
  ASSERT_TRUE(Ref.ok()) << Ref.Diags.text();
  expectSameArtifacts(Ref, Warm);
}

TEST(IncrementalTest, IRFileAndFallbackModulesMatchColdBuild) {
  // Phase 2 resumes from phase 1's IR file only for modules phase 1
  // compiled in the same build. After the pressure edit, mod3 has one
  // (summary miss, object miss); an ancestor whose slice moved has a
  // cached summary, so its object miss lowers from the AST again. Both
  // paths run side by side in one build and must match a cold build.
  for (unsigned Threads : {1u, 4u}) {
    PipelineConfig Config = PipelineConfig::configC();
    Config.NumThreads = Threads;
    Pipeline P(Config);
    BuildResult Cold = P.build(corpus());
    ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();
    auto Edited = pressureEdit();
    BuildResult Warm = P.build(Edited);
    ASSERT_TRUE(Warm.ok()) << Warm.Diags.text();

    size_t FromIRFile = 0, Relowered = 0;
    for (const ModulePipelineStats &M : Warm.Stats.Modules) {
      if (M.Phase2FromCache)
        continue;
      if (M.Phase1FromCache)
        ++Relowered;
      else
        ++FromIRFile;
    }
    EXPECT_EQ(FromIRFile, 1u) << "threads " << Threads;
    EXPECT_GT(Relowered, 0u) << "threads " << Threads;

    Pipeline Fresh(Config);
    BuildResult Ref = Fresh.build(Edited);
    ASSERT_TRUE(Ref.ok()) << Ref.Diags.text();
    expectSameArtifacts(Ref, Warm);
  }
}

TEST(IncrementalTest, AnalyzerKnobFlipKeepsSummariesInvalidatesDatabase) {
  TempDir Dir("knob");
  PipelineConfig C = PipelineConfig::configC();
  C.CacheDir = Dir.str();
  Pipeline P1(C);
  BuildResult Cold = P1.build(corpus());
  ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();
  const size_t N = Cold.Stats.Modules.size();

  // Same compiler knobs, different analyzer: summaries are shared
  // through the disk cache, the database and (changed-slice) objects
  // are not.
  PipelineConfig D = PipelineConfig::configD();
  D.CacheDir = Dir.str();
  Pipeline P2(D);
  BuildResult R = P2.build(corpus());
  ASSERT_TRUE(R.ok()) << R.Diags.text();
  EXPECT_EQ(R.Stats.Phase1CacheHits, N);
  EXPECT_EQ(R.Stats.AnalyzerCacheMisses, 1u);

  Pipeline Fresh(PipelineConfig::configD());
  BuildResult Ref = Fresh.build(corpus());
  ASSERT_TRUE(Ref.ok()) << Ref.Diags.text();
  expectSameArtifacts(Ref, R);
}

TEST(IncrementalTest, CompileKnobFlipInvalidatesEverything) {
  TempDir Dir("cflip");
  PipelineConfig C = PipelineConfig::configC();
  C.CacheDir = Dir.str();
  Pipeline P1(C);
  BuildResult Cold = P1.build(corpus());
  ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();
  const size_t N = Cold.Stats.Modules.size();

  // A per-module compiler knob: every summary and object is stale.
  PipelineConfig C2 = C;
  C2.LocalGlobalPromotion = false;
  Pipeline P2(C2);
  BuildResult R = P2.build(corpus());
  ASSERT_TRUE(R.ok()) << R.Diags.text();
  EXPECT_EQ(R.Stats.Phase1CacheHits, 0u);
  EXPECT_EQ(R.Stats.Phase1CacheMisses, N);
  EXPECT_EQ(R.Stats.Phase2CacheHits, 0u);
}

TEST(IncrementalTest, DiskCachePersistsAcrossPipelines) {
  TempDir Dir("persist");
  PipelineConfig C = PipelineConfig::configC();
  C.CacheDir = Dir.str();
  Pipeline P1(C);
  BuildResult Cold = P1.build(corpus());
  ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();
  const size_t N = Cold.Stats.Modules.size();

  // A brand-new Pipeline (fresh memory layer) sees only the disk.
  Pipeline P2(C);
  BuildResult Warm = P2.build(corpus());
  ASSERT_TRUE(Warm.ok()) << Warm.Diags.text();
  EXPECT_EQ(Warm.Stats.Phase1CacheHits, N);
  EXPECT_EQ(Warm.Stats.AnalyzerCacheHits, 1u);
  EXPECT_EQ(Warm.Stats.Phase2CacheHits, N);
  expectSameArtifacts(Cold, Warm);
  EXPECT_GT(P2.cache().stats().DiskHits, 0u);
}

TEST(IncrementalTest, CorruptOrDeletedEntriesAreRecomputed) {
  TempDir Dir("corrupt");
  PipelineConfig C = PipelineConfig::configC();
  C.CacheDir = Dir.str();
  {
    Pipeline P(C);
    BuildResult Cold = P.build(corpus());
    ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();
  }

  // Truncate half the entries, delete the rest.
  size_t Entry = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir.str())) {
    if (++Entry % 2 == 0) {
      std::ofstream Out(E.path(), std::ios::trunc);
      Out << "not an artifact\n";
    } else {
      fs::remove(E.path());
    }
  }

  Pipeline P(C);
  BuildResult R = P.build(corpus());
  ASSERT_TRUE(R.ok()) << R.Diags.text();
  EXPECT_EQ(R.Stats.Phase1CacheHits, 0u);
  EXPECT_EQ(R.Stats.Phase2CacheHits, 0u);

  Pipeline Fresh(PipelineConfig::configC());
  BuildResult Ref = Fresh.build(corpus());
  expectSameArtifacts(Ref, R);

  // The rebuilt entries serve the next build again.
  Pipeline P2(C);
  BuildResult Warm = P2.build(corpus());
  ASSERT_TRUE(Warm.ok()) << Warm.Diags.text();
  EXPECT_EQ(Warm.Stats.Phase2CacheHits, Warm.Stats.Modules.size());
}

TEST(IncrementalTest, PositionalAnalyzerStatsEntryIsAMiss) {
  TempDir Dir("positional");
  PipelineConfig C = PipelineConfig::configC();
  C.CacheDir = Dir.str();
  BuildResult Cold = Pipeline(C).build(corpus());
  ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();

  // Rewrite the analyzer entry (the one whose second line opens the
  // database) into the older positional form, one line of
  // "analyzer-stats" followed by the counters and sub-phase times.
  size_t Rewritten = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir.str())) {
    std::ifstream In(E.path(), std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    In.close();
    std::string Text = Buf.str();
    size_t NL = Text.find('\n');
    if (NL == std::string::npos ||
        Text.compare(NL + 1, 14, "ipra-db-format") != 0)
      continue;
    std::ostringstream Line;
    Line << "analyzer-stats";
    AnalyzerStats::fields(Cold.Analyzer, [&Line](const char *, auto F) {
      Line << " " << F;
    });
    std::ofstream Out(E.path(), std::ios::binary | std::ios::trunc);
    Out << Line.str() << Text.substr(NL);
    ++Rewritten;
  }
  ASSERT_EQ(Rewritten, 1u);

  Pipeline P(C);
  BuildResult Warm = P.build(corpus());
  ASSERT_TRUE(Warm.ok()) << Warm.Diags.text();
  EXPECT_EQ(Warm.Stats.AnalyzerCacheHits, 0u);
  EXPECT_EQ(Warm.Stats.AnalyzerCacheMisses, 1u);
  EXPECT_EQ(Warm.Stats.Phase1CacheHits, Warm.Stats.Modules.size());
  expectSameArtifacts(Cold, Warm);
  EXPECT_EQ(Warm.Analyzer.ColoredWebs, Cold.Analyzer.ColoredWebs);

  // The re-analysis wrote the current form back; it hits again.
  BuildResult Again = Pipeline(C).build(corpus());
  ASSERT_TRUE(Again.ok()) << Again.Diags.text();
  EXPECT_EQ(Again.Stats.AnalyzerCacheHits, 1u);
  EXPECT_EQ(Again.Analyzer.ColoredWebs, Cold.Analyzer.ColoredWebs);
}

TEST(IncrementalTest, MalformedAnalyzerEntryValueIsAMiss) {
  TempDir Dir("malformed");
  PipelineConfig C = PipelineConfig::configC();
  C.CacheDir = Dir.str();
  BuildResult Cold = Pipeline(C).build(corpus());
  ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();

  // In the analyzer entry (the one whose second line opens the
  // database), make one promote record's register unreadable.
  size_t Rewritten = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir.str())) {
    std::ifstream In(E.path(), std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    In.close();
    std::string Text = Buf.str();
    size_t NL = Text.find('\n');
    if (NL == std::string::npos ||
        Text.compare(NL + 1, 14, "ipra-db-format") != 0)
      continue;
    size_t Reg = Text.find(" reg=", NL);
    ASSERT_NE(Reg, std::string::npos);
    size_t Value = Reg + 5;
    size_t End = Text.find(' ', Value);
    std::ofstream Out(E.path(), std::ios::binary | std::ios::trunc);
    Out << Text.substr(0, Value) << "zz" << Text.substr(End);
    ++Rewritten;
  }
  ASSERT_EQ(Rewritten, 1u);

  BuildResult Warm = Pipeline(C).build(corpus());
  ASSERT_TRUE(Warm.ok()) << Warm.Diags.text();
  EXPECT_EQ(Warm.Stats.AnalyzerCacheHits, 0u);
  EXPECT_EQ(Warm.Stats.AnalyzerCacheMisses, 1u);
  expectSameArtifacts(Cold, Warm);
}

TEST(IncrementalTest, WarmRebuildsAreByteIdenticalAcrossThreadCounts) {
  TempDir Dir1("threads1");
  TempDir Dir8("threads8");
  auto Edited = withEdit(corpus(), "mod5.mc",
                         "int g5;\n"
                         "int f6(int);\n"
                         "int f5(int x) { g5 = x + g5; "
                         "return f6(x) + g5; }\n");

  auto buildPair = [&](const std::string &CacheDir, int Threads) {
    PipelineConfig C = PipelineConfig::configC();
    C.CacheDir = CacheDir;
    C.NumThreads = Threads;
    Pipeline P(C);
    BuildResult Cold = P.build(corpus());
    EXPECT_TRUE(Cold.ok()) << Cold.Diags.text();
    BuildResult Warm = P.build(Edited);
    EXPECT_TRUE(Warm.ok()) << Warm.Diags.text();
    EXPECT_EQ(Warm.Stats.Phase1CacheMisses, 1u);
    return Warm;
  };
  BuildResult Serial = buildPair(Dir1.str(), 1);
  BuildResult Parallel = buildPair(Dir8.str(), 8);
  expectSameArtifacts(Serial, Parallel);

  Pipeline Fresh(PipelineConfig::configC());
  BuildResult Ref = Fresh.build(Edited);
  ASSERT_TRUE(Ref.ok()) << Ref.Diags.text();
  expectSameArtifacts(Ref, Serial);
}

//===--------------------------------------------------------------------===//
// Artifact format versioning and configuration fingerprints.
//===--------------------------------------------------------------------===//

TEST(IncrementalTest, SummaryReaderRejectsUnknownFormatVersion) {
  ModuleSummary S;
  std::string Error;
  EXPECT_FALSE(
      readSummary("summary-format 99 config=-\nmodule m\n", S, Error));
  EXPECT_NE(Error.find("version 99 is not supported"), std::string::npos);

  DatabaseResult R = Pipeline(PipelineConfig::configC())
                         .analyze({"summary-format 99 config=-\nmodule m\n"});
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.text().find("bad summary file"), std::string::npos);
}

TEST(IncrementalTest, DatabaseReaderRejectsUnknownFormatVersion) {
  ProgramDatabase DB;
  std::string Error;
  EXPECT_FALSE(
      ProgramDatabase::deserialize("ipra-db-format 99 config=-\n", DB,
                                   Error));
  EXPECT_NE(Error.find("version 99 is not supported"), std::string::npos);

  PipelineConfig C = PipelineConfig::configC();
  auto R = Pipeline(C).execute(
      BuildRequest::object(C, {{"m.mc", "int main() { return 0; }\n"}},
                           "ipra-db-format 99 config=-\n"));
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.text().find("bad program database"), std::string::npos);
}

// The points-to facts (escape verdicts, resolved indirect-call target
// sets) forced a format bump to version 3: artifacts stamped with the
// previous version must be rejected so a stale cache cannot feed
// fact-free summaries to a reader that expects them.
TEST(IncrementalTest, PreviousFormatVersionIsRejected) {
  ModuleSummary S;
  std::string Error;
  EXPECT_FALSE(
      readSummary("summary-format 2 config=-\nmodule m\n", S, Error));
  EXPECT_NE(Error.find("version 2 is not supported"), std::string::npos);
  EXPECT_NE(Error.find("regenerate"), std::string::npos);

  ProgramDatabase DB;
  EXPECT_FALSE(
      ProgramDatabase::deserialize("ipra-db-format 2 config=-\n", DB,
                                   Error));
  EXPECT_NE(Error.find("version 2 is not supported"), std::string::npos);
  EXPECT_NE(Error.find("regenerate"), std::string::npos);
}

// The GPG residues (gpu/gpgcall/gpgsite records, finit=, gpg=1)
// forced a format bump to version 4: version-3 artifacts must be
// rejected so a stale cache cannot feed residue-free summaries to a
// composer that expects every procedure to carry one.
TEST(IncrementalTest, FormatVersion3IsRejectedByV4Readers) {
  ModuleSummary S;
  std::string Error;
  EXPECT_FALSE(
      readSummary("summary-format 3 config=-\nmodule m\n", S, Error));
  EXPECT_NE(Error.find("version 3 is not supported"), std::string::npos);
  EXPECT_NE(Error.find("regenerate"), std::string::npos);

  ProgramDatabase DB;
  EXPECT_FALSE(
      ProgramDatabase::deserialize("ipra-db-format 3 config=-\n", DB,
                                   Error));
  EXPECT_NE(Error.find("version 3 is not supported"), std::string::npos);
  EXPECT_NE(Error.find("regenerate"), std::string::npos);
}

// The mod/ref and lint fields (ref loads=, proc params=, call args=,
// global init=) forced the bump to version 5: a version-4 artifact fed
// to a v5 reader must be rejected with the regenerate diagnostic, or a
// stale cache could seed read/write bits the composer never checked.
TEST(IncrementalTest, FormatVersion4IsRejectedByV5Readers) {
  ModuleSummary S;
  std::string Error;
  EXPECT_FALSE(
      readSummary("summary-format 4 config=-\nmodule m\n", S, Error));
  EXPECT_NE(Error.find("version 4 is not supported"), std::string::npos);
  EXPECT_NE(Error.find("regenerate"), std::string::npos);

  ProgramDatabase DB;
  EXPECT_FALSE(
      ProgramDatabase::deserialize("ipra-db-format 4 config=-\n", DB,
                                   Error));
  EXPECT_NE(Error.find("version 4 is not supported"), std::string::npos);
  EXPECT_NE(Error.find("regenerate"), std::string::npos);
}

// Every v5 field survives a write -> read -> write round trip, for
// both branch values where the field is a bit.
TEST(IncrementalTest, ModRefFieldsSurviveSummaryRoundTrip) {
  ModuleSummary S;
  S.Module = "m";
  GlobalSummary GInit, GZero;
  GInit.QualName = "g_init";
  GInit.Module = "m";
  GInit.IsScalar = true;
  GInit.HasInit = true;
  GZero.QualName = "g_zero";
  GZero.Module = "m";
  GZero.IsScalar = true;
  GZero.HasInit = false;
  S.Globals = {GInit, GZero};
  ProcSummary P;
  P.QualName = "m:f";
  P.Module = "m";
  P.NumParams = 3;
  P.GlobalRefs.push_back(
      GlobalRefSummary{"g_init", 10, /*Stores=*/true, /*Loads=*/false});
  P.GlobalRefs.push_back(
      GlobalRefSummary{"g_zero", 5, /*Stores=*/false, /*Loads=*/true});
  P.Calls.push_back(CallSummary{"m:g", 2, /*Args=*/4});
  P.Calls.push_back(CallSummary{"m:h", 1, /*Args=*/0});
  S.Procs.push_back(P);

  std::string Text = writeSummary(S);
  ModuleSummary Back;
  std::string Error;
  ASSERT_TRUE(readSummary(Text, Back, Error)) << Error;
  ASSERT_EQ(Back.Procs.size(), 1u);
  EXPECT_EQ(Back.Procs[0].NumParams, 3);
  ASSERT_EQ(Back.Procs[0].GlobalRefs.size(), 2u);
  EXPECT_TRUE(Back.Procs[0].GlobalRefs[0].Stores);
  EXPECT_FALSE(Back.Procs[0].GlobalRefs[0].Loads);
  EXPECT_FALSE(Back.Procs[0].GlobalRefs[1].Stores);
  EXPECT_TRUE(Back.Procs[0].GlobalRefs[1].Loads);
  ASSERT_EQ(Back.Procs[0].Calls.size(), 2u);
  EXPECT_EQ(Back.Procs[0].Calls[0].Args, 4);
  EXPECT_EQ(Back.Procs[0].Calls[1].Args, 0);
  ASSERT_EQ(Back.Globals.size(), 2u);
  EXPECT_TRUE(Back.Globals[0].HasInit);
  EXPECT_FALSE(Back.Globals[1].HasInit);
  EXPECT_EQ(writeSummary(Back), Text);
}

// The v5 fields are required: a record without loads=, init=, params=
// or args= is rejected (naming the line and the field) rather than
// read with a guessed default.
TEST(IncrementalTest, V5RecordsMissingModRefFieldsAreRejected) {
  const std::string Header = "summary-format " +
                             std::to_string(SummaryFormatVersion) +
                             " config=-\nmodule m\n";
  const std::string Global =
      "global g static=0 scalar=1 aliased=0 escape=0 init=1\n";
  const std::string Proc = "proc m:f regs=2 indirect=0 indfreq=0 "
                           "callerused=00000000 indresolved=0 params=0\n";
  const std::string Ref = "ref g freq=10 stores=1 loads=0\n";
  const std::string Call = "call m:g freq=1 args=0\n";
  ModuleSummary S;
  std::string Error;
  ASSERT_TRUE(
      readSummary(Header + Global + Proc + Ref + Call + "end\n", S, Error))
      << Error;
  auto Without = [](std::string Line, const std::string &Field) {
    Line.erase(Line.find(" " + Field), Field.size() + 3);
    return Line;
  };
  const std::pair<std::string, std::string> Cases[] = {
      {Header + Without(Global, "init") + Proc + "end\n",
       "line 3: missing init= field"},
      {Header + Without(Proc, "params") + "end\n",
       "line 3: missing params= field"},
      {Header + Proc + Without(Ref, "loads") + "end\n",
       "line 4: missing loads= field"},
      {Header + Proc + Without(Call, "args") + "end\n",
       "line 4: missing args= field"},
  };
  for (const auto &[Text, Expect] : Cases) {
    Error.clear();
    EXPECT_FALSE(readSummary(Text, S, Error)) << Text;
    EXPECT_NE(Error.find(Expect), std::string::npos) << Error;
  }
}

// A mod/ref-only edit — flipping a ref's loads= bit, a call's args=, a
// global's init= — must register in the structural diff, or the delta
// analyzer would splice stale verdict-bearing records.
TEST(IncrementalTest, SummaryDiffFlagsModRefOnlyEdits) {
  ModuleSummary Old;
  Old.Module = "m";
  GlobalSummary G;
  G.QualName = "g";
  G.Module = "m";
  G.HasInit = true;
  Old.Globals = {G};
  ProcSummary P;
  P.QualName = "m:f";
  P.Module = "m";
  P.NumParams = 1;
  P.GlobalRefs.push_back(GlobalRefSummary{"g", 10, false, true});
  P.Calls.push_back(CallSummary{"m:f", 1, 1});
  Old.Procs = {P};

  // Identical copy: no delta.
  EXPECT_TRUE(diffModuleSummary(Old, Old).Identical);

  ModuleSummary New = Old;
  New.Procs[0].GlobalRefs[0].Loads = false;
  ModuleSummaryDelta D = diffModuleSummary(Old, New);
  EXPECT_FALSE(D.Identical);
  EXPECT_FALSE(D.ProcSequenceChanged);
  ASSERT_EQ(D.ChangedProcs.size(), 1u);
  EXPECT_EQ(D.ChangedProcs[0], 0);

  New = Old;
  New.Procs[0].Calls[0].Args = 2;
  EXPECT_FALSE(diffModuleSummary(Old, New).Identical);

  New = Old;
  New.Procs[0].NumParams = 2;
  EXPECT_FALSE(diffModuleSummary(Old, New).Identical);

  New = Old;
  New.Globals[0].HasInit = false;
  D = diffModuleSummary(Old, New);
  EXPECT_FALSE(D.Identical);
  EXPECT_TRUE(D.GlobalsChanged);
}

// The database's modref records round-trip byte-for-byte and stay out
// of every module slice (verdict churn must never force a recompile).
TEST(IncrementalTest, DatabaseModRefRecordsRoundTripOutsideSlices) {
  Pipeline P(PipelineConfig::configC());
  auto P1 = P.execute(BuildRequest::summary(
      P.config(), {{"m.mc", "int g_ro = 7;\nint main() { return g_ro; }\n"}}));
  ASSERT_TRUE(P1.ok()) << P1.text();
  DatabaseResult A = P.analyze(P1->Summaries);
  ASSERT_TRUE(A.ok()) << A.text();

  ProgramDatabase DB;
  std::string Error;
  ASSERT_TRUE(ProgramDatabase::deserialize(A.DatabaseText, DB, Error))
      << Error;
  ASSERT_TRUE(DB.ModRefs.count("g_ro"));
  EXPECT_EQ(DB.ModRefs.at("g_ro").Verdict, 1); // read-only
  EXPECT_TRUE(DB.ModRefs.at("g_ro").Exact);
  EXPECT_EQ(DB.serialize(), A.DatabaseText);

  ModuleSummary S;
  ASSERT_TRUE(readSummary(P1->Summaries[0], S, Error)) << Error;
  EXPECT_EQ(DB.sliceFor(S, false).find("modref"), std::string::npos);
}

// The version-3 fields survive a full phase1 -> analyzer -> reader
// round trip: escape verdicts and resolved indirect targets come back
// from the serialized text exactly as the producer wrote them.
TEST(IncrementalTest, PointsToFieldsSurviveSerializationRoundTrip) {
  SourceFile Src{"m.mc",
                 "static int hits;\n"
                 "static int *probe;\n"
                 "static int h(int x) { hits = hits + x; return hits; }\n"
                 "static func cb = &h;\n"
                 "void arm() { probe = &hits; }\n"
                 "int main() { int i; i = 0;\n"
                 "  while (i < 9) { i = i + cb(i) % 3 + 1; }\n"
                 "  return i; }\n"};
  Pipeline P(PipelineConfig::configC());
  auto P1 = P.execute(BuildRequest::summary(P.config(), {Src}));
  ASSERT_TRUE(P1.ok()) << P1.text();

  ModuleSummary S;
  std::string Error;
  ASSERT_TRUE(readSummary(P1->Summaries[0], S, Error)) << Error;
  const GlobalSummary *Hits = nullptr;
  for (const GlobalSummary &G : S.Globals)
    if (G.QualName.find("hits") != std::string::npos)
      Hits = &G;
  ASSERT_TRUE(Hits);
  EXPECT_TRUE(Hits->Aliased);
  EXPECT_EQ(Hits->Escape, EscapeVerdict::Refuted);
  const ProcSummary *Main = nullptr;
  for (const ProcSummary &P : S.Procs)
    if (P.QualName.find("main") != std::string::npos)
      Main = &P;
  ASSERT_TRUE(Main);
  EXPECT_TRUE(Main->IndTargetsResolved);
  ASSERT_EQ(Main->IndirectTargets.size(), 1u);
  EXPECT_NE(Main->IndirectTargets[0].find("h"), std::string::npos);
  // Re-serializing the parsed summary reproduces the producer's bytes.
  EXPECT_EQ(writeSummary(S), P1->Summaries[0]);

  DatabaseResult A = P.analyze(P1->Summaries);
  ASSERT_TRUE(A.ok()) << A.text();
  ProgramDatabase DB;
  ASSERT_TRUE(ProgramDatabase::deserialize(A.DatabaseText, DB, Error))
      << Error;
  ASSERT_TRUE(DB.procs().count("main"));
  ProcDirectives MainDir = DB.lookup("main");
  EXPECT_TRUE(MainDir.IndTargetsResolved);
  ASSERT_EQ(MainDir.IndirectTargets.size(), 1u);
  EXPECT_NE(MainDir.IndirectTargets[0].find("h"), std::string::npos);
  EXPECT_EQ(DB.serialize(), A.DatabaseText);
}

TEST(IncrementalTest, HeaderlessArtifactsAreRejected) {
  ModuleSummary S;
  std::string Error;
  EXPECT_FALSE(readSummary("module m\nproc m:f regs=2\nend\n", S, Error));
  EXPECT_NE(Error.find("'summary-format' header"), std::string::npos)
      << Error;

  ProgramDatabase DB;
  Error.clear();
  EXPECT_FALSE(ProgramDatabase::deserialize(
      "proc m:f free=00000000 caller=00000000 callee=00000000"
      " mspill=00000000 root=0\nend\n",
      DB, Error));
  EXPECT_NE(Error.find("'ipra-db-format' header"), std::string::npos)
      << Error;
}

TEST(IncrementalTest, AnalyzerRejectsSummariesFromOtherCompilerConfig) {
  SourceFile Src{"m.mc", "int g;\nint main() { g = 1; return g; }\n"};
  PipelineConfig C = PipelineConfig::configC();
  auto P1 = Pipeline(C).execute(BuildRequest::summary(C, {Src}));
  ASSERT_TRUE(P1.ok()) << P1.text();

  // Flip a compile-side knob: the stamped fingerprint no longer
  // matches, so the analyzer refuses the stale summary.
  PipelineConfig Other = PipelineConfig::configC();
  Other.LocalGlobalPromotion = false;
  DatabaseResult R = Pipeline(Other).analyze(P1->Summaries);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.text().find("different compiler configuration"),
            std::string::npos);

  // Analyzer-side knobs do not invalidate summaries.
  DatabaseResult Ok =
      Pipeline(PipelineConfig::configD()).analyze(P1->Summaries);
  EXPECT_TRUE(Ok.ok()) << Ok.text();
}

TEST(IncrementalTest, Phase2RejectsDatabaseFromOtherConfig) {
  PipelineConfig C = PipelineConfig::configC();
  SourceFile Src{"m.mc", "int g;\nint main() { g = 1; return g; }\n"};
  Pipeline P(C);
  auto P1 = P.execute(BuildRequest::summary(C, {Src}));
  ASSERT_TRUE(P1.ok()) << P1.text();
  DatabaseResult A = P.analyze(P1->Summaries);
  ASSERT_TRUE(A.ok()) << A.text();

  PipelineConfig D = PipelineConfig::configD();
  auto R = Pipeline(D).execute(BuildRequest::object(D, {Src}, A.DatabaseText));
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.text().find("different configuration"), std::string::npos);

  auto Ok = P.execute(BuildRequest::object(C, {Src}, A.DatabaseText));
  EXPECT_TRUE(Ok.ok()) << Ok.text();
}

//===--------------------------------------------------------------------===//
// The structured facade results.
//===--------------------------------------------------------------------===//

TEST(IncrementalTest, FacadeReportsStructuredDiagnostics) {
  Pipeline P(PipelineConfig::baseline());
  auto R = P.execute(BuildRequest::summary(
      P.config(), {{"bad.mc", "int main() { return x; }\n"}}));
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Ok);
  ASSERT_TRUE(R.Diags.hasErrors());
  EXPECT_EQ(R.Diags.Items[0].Module, "bad.mc");
  EXPECT_NE(R.Diags.text().find("undeclared"), std::string::npos);
}

TEST(IncrementalTest, PhaseGranularMethodsShareThePipelineCache) {
  Pipeline P(PipelineConfig::configC());
  SourceFile Src{"m.mc", "int g;\nint main() { g = 2; return g; }\n"};
  auto First = P.execute(BuildRequest::summary(P.config(), {Src}));
  ASSERT_TRUE(First.ok()) << First.Diags.text();
  EXPECT_FALSE(First->FromCache);
  auto Second = P.execute(BuildRequest::summary(P.config(), {Src}));
  ASSERT_TRUE(Second.ok());
  EXPECT_TRUE(Second->FromCache);
  EXPECT_EQ(First->Summaries, Second->Summaries);

  DatabaseResult DB1 = P.analyze(First->Summaries);
  ASSERT_TRUE(DB1.ok()) << DB1.Diags.text();
  EXPECT_FALSE(DB1.FromCache);
  DatabaseResult DB2 = P.analyze(First->Summaries);
  ASSERT_TRUE(DB2.ok());
  EXPECT_TRUE(DB2.FromCache);
  EXPECT_EQ(DB1.DatabaseText, DB2.DatabaseText);

  BuildRequest ObjectReq =
      BuildRequest::object(P.config(), {Src}, DB1.DatabaseText);
  auto O1 = P.execute(ObjectReq);
  ASSERT_TRUE(O1.ok()) << O1.Diags.text();
  EXPECT_FALSE(O1->FromCache);
  auto O2 = P.execute(ObjectReq);
  ASSERT_TRUE(O2.ok());
  EXPECT_TRUE(O2->FromCache);
  EXPECT_EQ(O1->Objects, O2->Objects);
}

TEST(IncrementalTest, CachedBuildStillRunsTheProgram) {
  TempDir Dir("run");
  PipelineConfig C = PipelineConfig::configC();
  C.CacheDir = Dir.str();
  Pipeline P1(C);
  BuildResult Cold = P1.build(corpus());
  ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();
  RunResult ColdRun = runExecutable(Cold.Exe);
  ASSERT_TRUE(ColdRun.Halted) << ColdRun.Trap;

  Pipeline P2(C);
  BuildResult Warm = P2.build(corpus());
  ASSERT_TRUE(Warm.ok()) << Warm.Diags.text();
  RunResult WarmRun = runExecutable(Warm.Exe);
  ASSERT_TRUE(WarmRun.Halted) << WarmRun.Trap;
  EXPECT_EQ(ColdRun.Output, WarmRun.Output);
  EXPECT_EQ(ColdRun.Stats.Cycles, WarmRun.Stats.Cycles);
}

//===--------------------------------------------------------------------===//
// Composable configuration views.
//===--------------------------------------------------------------------===//

TEST(IncrementalTest, ConfigViewsComposeIntoThePresets) {
  PipelineConfig C = PipelineConfig::baseline();
  C.setAnalyzerOptions(AnalyzerOptions::columnC());
  EXPECT_EQ(C.fingerprint(), PipelineConfig::configC().fingerprint());
  EXPECT_TRUE(C.Ipra);

  PipelineConfig D = PipelineConfig::baseline();
  D.setAnalyzerOptions(AnalyzerOptions::columnD());
  EXPECT_EQ(D.fingerprint(), PipelineConfig::configD().fingerprint());
  EXPECT_NE(D.fingerprint(), C.fingerprint());

  // The analyzer view round-trips through its setter, and leaves the
  // compile view alone.
  PipelineConfig E = PipelineConfig::configE();
  PipelineConfig Copy = PipelineConfig::baseline();
  Copy.NumThreads = 3;
  Copy.setAnalyzerOptions(E.analyzerOptions());
  EXPECT_EQ(Copy.fingerprint(), E.fingerprint());
  EXPECT_EQ(Copy.compileFingerprint(), E.compileFingerprint());
  EXPECT_EQ(Copy.NumThreads, 3); // The pipeline's own thread count.
}

TEST(IncrementalTest, FingerprintIgnoresThreadsAndCacheDir) {
  PipelineConfig A = PipelineConfig::configC();
  PipelineConfig B = PipelineConfig::configC();
  B.NumThreads = 8;
  B.CacheDir = "/nonexistent/cache";
  B.DeltaAnalysis = true; // Byte-identical output: no fingerprint.
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  EXPECT_EQ(A.compileFingerprint(), B.compileFingerprint());

  // Compile knobs move only the compile fingerprint; analyzer knobs
  // move only the analyzer fingerprint.
  PipelineConfig C = PipelineConfig::configC();
  C.LinkerReservedRegs = 0xf0;
  EXPECT_NE(C.compileFingerprint(), A.compileFingerprint());
  EXPECT_EQ(C.analyzerFingerprint(), A.analyzerFingerprint());
  PipelineConfig D = PipelineConfig::configC();
  D.WebPool = pr32::rangeMask(13, 16);
  EXPECT_EQ(D.compileFingerprint(), A.compileFingerprint());
  EXPECT_NE(D.analyzerFingerprint(), A.analyzerFingerprint());
}

// The fingerprints are cache keys and artifact stamps: a refactor of
// the configuration must leave every one byte-identical, or every
// persisted summary, database and cache entry silently turns stale.
// Pinned for the presets, the §7.6 extension flags, a partial graph and
// the points-to and mod/ref modes.
TEST(IncrementalTest, FingerprintsArePinned) {
  auto WithExtensions = [](PipelineConfig C) {
    C.CallerSavePropagation = true;
    C.SplitSparseWebs = true;
    C.RemergeWebs = true;
    C.RelaxWebAvail = true;
    C.ImprovedFreeSets = true;
    return C;
  };
  auto VariantOfC = [](auto Change) {
    PipelineConfig C = PipelineConfig::configC();
    Change(C);
    return C;
  };
  const struct {
    const char *Name;
    PipelineConfig Config;
    const char *Compile, *Analyzer;
  } Pins[] = {
      {"base", PipelineConfig::baseline(), "c8bfefc7b094ab52",
       "91bb908f8a559daf"},
      {"A", PipelineConfig::configA(), "c8bfefc7b094ab52",
       "a3d434d829361d55"},
      {"B", PipelineConfig::configB(), "c8bfefc7b094ab52",
       "427fe820d3da8c6e"},
      {"C", PipelineConfig::configC(), "c8bfefc7b094ab52",
       "3955dabb2c2a12b0"},
      {"D", PipelineConfig::configD(), "c8bfefc7b094ab52",
       "8b0088028af975bf"},
      {"E", PipelineConfig::configE(), "c8bfefc7b094ab52",
       "5f2dd8554c7871a2"},
      {"F", PipelineConfig::configF(), "c8bfefc7b094ab52",
       "24ecf3f890309677"},
      {"C+extensions", WithExtensions(PipelineConfig::configC()),
       "f207e91576aabf5f", "0f12f7dd8bee5033"},
      {"F+extensions", WithExtensions(PipelineConfig::configF()),
       "f207e91576aabf5f", "7d413e42adeb7f14"},
      {"C --partial",
       VariantOfC([](PipelineConfig &C) { C.AssumeClosedWorld = false; }),
       "c8bfefc7b094ab52", "77736749ef98f157"},
      {"C --points-to=off",
       VariantOfC([](PipelineConfig &C) { C.PointsTo = PointsToMode::Off; }),
       "c8bfedc7b094a7ec", "6b791aa9df76e842"},
      {"C --points-to=andersen", VariantOfC([](PipelineConfig &C) {
         C.PointsTo = PointsToMode::Andersen;
       }),
       "c8bfeec7b094a99f", "3088f387fc254f17"},
      {"C --modref=off",
       VariantOfC([](PipelineConfig &C) { C.ModRef = false; }),
       "c8bfefc7b094ab52", "1d18dbaabaa461af"},
  };
  for (const auto &P : Pins) {
    EXPECT_EQ(P.Config.compileFingerprint(), P.Compile) << P.Name;
    EXPECT_EQ(P.Config.analyzerFingerprint(), P.Analyzer) << P.Name;
  }
}

// A knob on the wire list but missing from the hand-written fingerprint
// would let two configurations share cache entries and service
// sessions; every row except the two placement knobs must move it.
TEST(IncrementalTest, EveryWireKnobButThreadsAndDeltaMovesTheFingerprint) {
  const PipelineConfig Base = PipelineConfig::configC();
  auto Copies = test::nudgedCopies(Base);
  ASSERT_FALSE(Copies.empty());
  for (const auto &[Path, C] : Copies) {
    if (Path == "num-threads" || Path == "delta-analysis")
      EXPECT_EQ(C.fingerprint(), Base.fingerprint()) << Path;
    else
      EXPECT_NE(C.fingerprint(), Base.fingerprint()) << Path;
  }
}

// Every AnalyzerOptions row is output-affecting: nudging it must force
// the delta analyzer's full run, move the analyzer fingerprint, and
// survive the PipelineConfig view round trip.
TEST(IncrementalTest, EveryAnalyzerKnobForcesAFullRunAndMovesTheFingerprint) {
  std::vector<ModuleSummary> Mods(1);
  Mods[0].Module = "m";
  ProcSummary Main;
  Main.QualName = "main";
  Main.Module = "m";
  Mods[0].Procs.push_back(Main);

  const PipelineConfig Base = PipelineConfig::configC();
  const AnalyzerOptions BaseOpts = Base.analyzerOptions();
  {
    DeltaAnalyzer DA;
    DA.analyze(Mods, BaseOpts);
    AnalyzerOptions Threads = BaseOpts;
    Threads.NumThreads = 7;
    DA.analyze(Mods, Threads);
    EXPECT_EQ(DA.deltaStats().Mode, DeltaMode::Incremental)
        << DA.deltaStats().FallbackReason;
  }

  auto Copies = test::nudgedCopies(BaseOpts);
  ASSERT_FALSE(Copies.empty());
  for (const auto &[Path, O] : Copies) {
    DeltaAnalyzer DA;
    DA.analyze(Mods, BaseOpts);
    DA.analyze(Mods, O);
    EXPECT_EQ(DA.deltaStats().FallbackReason, "analyzer options changed")
        << Path;

    PipelineConfig C = Base;
    C.setAnalyzerOptions(O);
    EXPECT_NE(C.analyzerFingerprint(), Base.analyzerFingerprint()) << Path;
    EXPECT_EQ(json::encode(C.analyzerOptions()).dump(),
              json::encode(O).dump())
        << Path;
  }
}

//===--------------------------------------------------------------------===//
// Delta analysis through the pipeline.
//===--------------------------------------------------------------------===//

TEST(IncrementalTest, DeltaAnalysisBuildMatchesColdBuild) {
  PipelineConfig C = PipelineConfig::configC();
  C.DeltaAnalysis = true;
  Pipeline P(C);

  BuildResult Cold = P.build(corpus());
  ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();
  EXPECT_EQ(Cold.Stats.AnalyzerMode, "full");
  EXPECT_EQ(Cold.Delta.FallbackReason, "first analysis");

  // Byte-identical to a delta-free build of the same sources.
  BuildResult Plain = Pipeline(PipelineConfig::configC()).build(corpus());
  ASSERT_TRUE(Plain.ok()) << Plain.Diags.text();
  expectSameArtifacts(Cold, Plain);

  // A body edit in the middle of the chain keeps the procedure and
  // global universe but moves g3's reference counts: the rebuild
  // misses the analyzer cache and takes the damage-region path.
  std::vector<SourceFile> Edited = withEdit(
      corpus(), "mod3.mc",
      "int g3;\n"
      "int f4(int);\n"
      "int f3(int x) {\n"
      "  g3 = g3 + x;\n"
      "  if (x > 3) g3 = g3 + f4(g3);\n"
      "  return f4(x) + g3;\n"
      "}\n");
  BuildResult Warm = P.build(Edited);
  ASSERT_TRUE(Warm.ok()) << Warm.Diags.text();
  EXPECT_EQ(Warm.Stats.AnalyzerCacheMisses, 1u);
  EXPECT_EQ(Warm.Stats.AnalyzerMode, "delta");
  EXPECT_TRUE(Warm.Delta.FallbackReason.empty())
      << Warm.Delta.FallbackReason;
  EXPECT_EQ(Warm.Delta.ChangedProcs, 1);
  EXPECT_GT(Warm.Delta.TotalSccs, 0);
  EXPECT_LT(Warm.Delta.DamagedSccs, Warm.Delta.TotalSccs);

  BuildResult PlainEdited =
      Pipeline(PipelineConfig::configC()).build(Edited);
  ASSERT_TRUE(PlainEdited.ok()) << PlainEdited.Diags.text();
  expectSameArtifacts(Warm, PlainEdited);

  // A no-op rebuild reports the cached tag, not a fallback.
  BuildResult Again = P.build(Edited);
  ASSERT_TRUE(Again.ok()) << Again.Diags.text();
  EXPECT_EQ(Again.Stats.AnalyzerMode, "cached");
  EXPECT_TRUE(Again.Delta.FallbackReason.empty());
  expectSameArtifacts(Warm, Again);

  // The stats report renders the mode tag and the damage counters.
  std::string Report = Warm.Stats.toString(Warm.Analyzer, Warm.Delta);
  EXPECT_NE(Report.find("analyzer phases (delta)"), std::string::npos);
  EXPECT_NE(Report.find("delta: changed-procs=1"), std::string::npos);
}

// A mod/ref-only edit: dropping the last reachable store to g5 flips
// its whole-program verdict from ReadWrite to ReadOnly. The delta path
// recomputes verdicts over the whole (cheap) condensation while
// damaging only the edited SCC region, and must stay byte-identical to
// a cold analysis of the edited sources — including the new modref
// records and the allocation decisions they unlock.
TEST(IncrementalTest, DeltaAnalysisModRefEditMatchesColdBuild) {
  PipelineConfig C = PipelineConfig::configC();
  C.DeltaAnalysis = true;
  Pipeline P(C);

  BuildResult Cold = P.build(corpus());
  ASSERT_TRUE(Cold.ok()) << Cold.Diags.text();
  EXPECT_EQ(Cold.DatabaseFile.find("modref g5 verdict=1"),
            std::string::npos);

  std::vector<SourceFile> Edited = withEdit(
      corpus(), "mod5.mc",
      "int g5;\n"
      "int f6(int);\n"
      "int f5(int x) { return f6(x) + g5; }\n");
  BuildResult Warm = P.build(Edited);
  ASSERT_TRUE(Warm.ok()) << Warm.Diags.text();
  EXPECT_EQ(Warm.Stats.AnalyzerMode, "delta");
  EXPECT_NE(Warm.DatabaseFile.find("modref g5 verdict=1"),
            std::string::npos)
      << Warm.DatabaseFile;

  BuildResult PlainEdited = Pipeline(PipelineConfig::configC()).build(Edited);
  ASSERT_TRUE(PlainEdited.ok()) << PlainEdited.Diags.text();
  expectSameArtifacts(Warm, PlainEdited);
}

TEST(IncrementalTest, DeltaAnalysisPhaseGranularAnalyze) {
  PipelineConfig C = PipelineConfig::configC();
  C.DeltaAnalysis = true;
  Pipeline P(C);

  std::vector<std::string> Texts;
  for (const SourceFile &S : corpus()) {
    auto R = P.execute(BuildRequest::summary(C, {S}));
    ASSERT_TRUE(R.ok()) << R.Diags.text();
    Texts.push_back(R->Summaries[0]);
  }
  DatabaseResult First = P.analyze(Texts);
  ASSERT_TRUE(First.ok()) << First.Diags.text();
  EXPECT_EQ(First.Mode, "full");
  EXPECT_EQ(First.Delta.FallbackReason, "first analysis");

  // Re-summarize one edited module and re-analyze: the delta path
  // reports its damage region and the database text matches a cold
  // analyzer run over the same summaries.
  auto Edit = P.execute(BuildRequest::summary(
      C, {{"mod5.mc",
           "int g5;\n"
           "int f6(int);\n"
           "int f5(int x) {\n"
           "  g5 = g5 + x;\n"
           "  if (x > 3) g5 = g5 + f6(g5);\n"
           "  return f6(x) + g5;\n"
           "}\n"}}));
  ASSERT_TRUE(Edit.ok()) << Edit.Diags.text();
  Texts[5] = Edit->Summaries[0];
  DatabaseResult Second = P.analyze(Texts);
  ASSERT_TRUE(Second.ok()) << Second.Diags.text();
  EXPECT_EQ(Second.Mode, "delta");
  EXPECT_EQ(Second.Delta.ChangedProcs, 1);
  EXPECT_GT(Second.Delta.reuseRatio(), 0.0);

  DatabaseResult Plain =
      Pipeline(PipelineConfig::configC()).analyze(Texts);
  ASSERT_TRUE(Plain.ok()) << Plain.Diags.text();
  EXPECT_EQ(Second.DatabaseText, Plain.DatabaseText);
}

TEST(IncrementalTest, HashPartsIsUnambiguous) {
  EXPECT_NE(hashParts({"ab", "c"}), hashParts({"a", "bc"}));
  EXPECT_NE(hashParts({"", "x"}), hashParts({"x", ""}));
  EXPECT_EQ(hashParts({"a", "b"}), hashParts({"a", "b"}));
}

} // namespace
