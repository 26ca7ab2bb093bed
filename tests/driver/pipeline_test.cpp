//===- pipeline_test.cpp - End-to-end two-pass pipeline tests -------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "analysis/IPRAVerify.h"
#include "driver/Driver.h"
#include "driver/Pipeline.h"
#include "link/ObjectIO.h"
#include "summary/Summary.h"
#include "support/Json.h"
#include "support/Record.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>
#include <unistd.h>

using namespace ipra;

namespace {

RunResult runOk(const std::vector<SourceFile> &Sources,
                const PipelineConfig &Config,
                const ProfileData *Profile = nullptr) {
  BuildResult B = Pipeline(Config).build(Sources, Profile);
  EXPECT_TRUE(B.ok()) << B.text();
  RunResult R = runExecutable(B.Exe);
  EXPECT_TRUE(R.Halted) << "trap: " << R.Trap
                        << (R.OutOfFuel ? " (out of fuel)" : "");
  return R;
}

TEST(PipelineTest, HelloBaseline) {
  RunResult R = runOk({{"main.mc", "int main() { print(42); return 0; }\n"}},
                      PipelineConfig::baseline());
  EXPECT_EQ(R.Output, "42\n");
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(PipelineTest, ExitCodePropagates) {
  RunResult R = runOk({{"main.mc", "int main() { return 7; }\n"}},
                      PipelineConfig::baseline());
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(PipelineTest, ArithmeticAndControlFlow) {
  const char *Src =
      "int fib(int n) { if (n < 2) return n;"
      " return fib(n - 1) + fib(n - 2); }\n"
      "int main() { print(fib(10)); return 0; }\n";
  RunResult R = runOk({{"main.mc", Src}}, PipelineConfig::baseline());
  EXPECT_EQ(R.Output, "55\n");
}

TEST(PipelineTest, GlobalsAndLoops) {
  const char *Src =
      "int total;\n"
      "void add(int x) { total = total + x; }\n"
      "int main() {\n"
      "  for (int i = 1; i <= 100; i = i + 1) add(i);\n"
      "  print(total);\n"
      "  return 0;\n"
      "}\n";
  RunResult R = runOk({{"main.mc", Src}}, PipelineConfig::baseline());
  EXPECT_EQ(R.Output, "5050\n");
}

TEST(PipelineTest, ArraysAndStrings) {
  const char *Src =
      "int a[5];\n"
      "int main() {\n"
      "  for (int i = 0; i < 5; i = i + 1) a[i] = i * i;\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 5; i = i + 1) s = s + a[i];\n"
      "  prints(\"sum=\");\n"
      "  print(s);\n"
      "  return 0;\n"
      "}\n";
  RunResult R = runOk({{"main.mc", Src}}, PipelineConfig::baseline());
  EXPECT_EQ(R.Output, "sum=30\n");
}

TEST(PipelineTest, PointersAndAliasing) {
  const char *Src =
      "int g = 5;\n"
      "void bump(int *p) { *p = *p + 1; }\n"
      "int main() { bump(&g); bump(&g); print(g); return 0; }\n";
  RunResult R = runOk({{"main.mc", Src}}, PipelineConfig::baseline());
  EXPECT_EQ(R.Output, "7\n");
}

TEST(PipelineTest, IndirectCalls) {
  const char *Src =
      "func op;\n"
      "int add1(int x) { return x + 1; }\n"
      "int dbl(int x) { return x * 2; }\n"
      "int main() {\n"
      "  op = &add1;\n"
      "  print(op(10));\n"
      "  op = &dbl;\n"
      "  print(op(10));\n"
      "  return 0;\n"
      "}\n";
  RunResult R = runOk({{"main.mc", Src}}, PipelineConfig::baseline());
  EXPECT_EQ(R.Output, "11\n20\n");
}

TEST(PipelineTest, MultiModuleProgram) {
  const char *Lib =
      "int counter;\n"
      "int bump() { counter = counter + 1; return counter; }\n";
  const char *Main =
      "int counter;\n" // Common-symbol declaration.
      "int bump();\n"
      "int main() {\n"
      "  bump(); bump(); bump();\n"
      "  print(counter);\n"
      "  return 0;\n"
      "}\n";
  RunResult R = runOk({{"lib.mc", Lib}, {"main.mc", Main}},
                      PipelineConfig::baseline());
  EXPECT_EQ(R.Output, "3\n");
}

TEST(PipelineTest, StaticsAreModulePrivate) {
  const char *M1 =
      "static int s = 1;\n"
      "int getS1() { return s; }\n";
  const char *M2 =
      "static int s = 2;\n"
      "int getS2() { return s; }\n";
  const char *Main =
      "int getS1(); int getS2();\n"
      "int main() { print(getS1()); print(getS2()); return 0; }\n";
  RunResult R = runOk({{"m1.mc", M1}, {"m2.mc", M2}, {"main.mc", Main}},
                      PipelineConfig::baseline());
  EXPECT_EQ(R.Output, "1\n2\n");
}

TEST(PipelineTest, GlobalInitializers) {
  const char *Src =
      "int x = 10;\n"
      "int arr[] = {1, 2, 3, 4};\n"
      "char msg[] = \"ok\";\n"
      "int main() {\n"
      "  print(x + arr[0] + arr[3]);\n"
      "  prints(msg);\n"
      "  return 0;\n"
      "}\n";
  RunResult R = runOk({{"main.mc", Src}}, PipelineConfig::baseline());
  EXPECT_EQ(R.Output, "15\nok");
}

// One source, compiled at every configuration, must behave identically.
class ConfigEquivalenceTest
    : public ::testing::TestWithParam<const char *> {};

const char *TheProgram =
    "int depth = 0;\n"
    "int hits = 0;\n"
    "int table[64];\n"
    "static int mix(int v) { return v * 31 + 7; }\n"
    "int lookup(int k) {\n"
    "  int i = k % 64; if (i < 0) i = i + 64;\n"
    "  hits = hits + 1;\n"
    "  return table[i];\n"
    "}\n"
    "void store(int k, int v) {\n"
    "  int i = k % 64; if (i < 0) i = i + 64;\n"
    "  table[i] = v;\n"
    "}\n"
    "int work(int n) {\n"
    "  depth = depth + 1;\n"
    "  int acc = 0;\n"
    "  for (int i = 0; i < n; i = i + 1) {\n"
    "    store(i, mix(i));\n"
    "    acc = acc + lookup(i);\n"
    "  }\n"
    "  depth = depth - 1;\n"
    "  return acc;\n"
    "}\n"
    "int main() {\n"
    "  int r = 0;\n"
    "  for (int round = 0; round < 5; round = round + 1)\n"
    "    r = r + work(50);\n"
    "  print(r);\n"
    "  print(hits);\n"
    "  print(depth);\n"
    "  return 0;\n"
    "}\n";

TEST(ConfigEquivalence, AllConfigsProduceSameOutput) {
  std::vector<SourceFile> Sources = {{"prog.mc", TheProgram}};
  RunResult Base = runOk(Sources, PipelineConfig::baseline());
  ASSERT_FALSE(Base.Output.empty());

  // Profile for columns B and F comes from the baseline run.
  ProfileData Profile = Base.Profile;

  struct NamedConfig {
    const char *Name;
    PipelineConfig Config;
  };
  std::vector<NamedConfig> Configs = {
      {"A", PipelineConfig::configA()}, {"B", PipelineConfig::configB()},
      {"C", PipelineConfig::configC()}, {"D", PipelineConfig::configD()},
      {"E", PipelineConfig::configE()}, {"F", PipelineConfig::configF()},
  };
  for (const NamedConfig &NC : Configs) {
    RunResult R = runOk(Sources, NC.Config, &Profile);
    EXPECT_EQ(R.Output, Base.Output) << "config " << NC.Name;
    EXPECT_EQ(R.ExitCode, Base.ExitCode) << "config " << NC.Name;
  }
}

TEST(PipelineTest, IpraConfigCImprovesGlobalHeavyProgram) {
  // A call-intensive program with hot globals: column C should cut
  // singleton memory references relative to the baseline.
  const char *Src =
      "int a; int b; int c;\n"
      "void leaf() { a = a + 1; b = b + a; c = c + b; }\n"
      "void mid() { leaf(); leaf(); }\n"
      "int main() {\n"
      "  for (int i = 0; i < 200; i = i + 1) mid();\n"
      "  print(a); print(b); print(c);\n"
      "  return 0;\n"
      "}\n";
  std::vector<SourceFile> Sources = {{"prog.mc", Src}};
  RunResult Base = runOk(Sources, PipelineConfig::baseline());
  RunResult WithC = runOk(Sources, PipelineConfig::configC());
  EXPECT_EQ(WithC.Output, Base.Output);
  EXPECT_LT(WithC.Stats.SingletonRefs, Base.Stats.SingletonRefs);
  EXPECT_LE(WithC.Stats.Cycles, Base.Stats.Cycles);
}

TEST(PipelineTest, ReadOnlyPromotionDropsStoresKeepsOutput) {
  // cfg is written by nobody reachable from main: the mod/ref analysis
  // proves it exactly read-only, so its promoted webs skip the exit-sync
  // writeback and wrap stores. The in-loop tick() call blocks the local
  // optimizer from hoisting the cfg load, keeping the web economic.
  std::vector<SourceFile> Sources = {
      {"a.mc", "int use(int n);\n"
               "int main() {\n"
               "  int s = 0;\n"
               "  int i = 0;\n"
               "  while (i < 40) { s = s + use(i); i = i + 1; }\n"
               "  prints(\"s=\");\n"
               "  print(s);\n"
               "  return 0;\n"
               "}\n"},
      {"b.mc", "int cfg = 3;\n"
               "int tick(int n);\n"
               "int use(int n) {\n"
               "  int i = 0;\n"
               "  int s = 0;\n"
               "  while (i < 25) {\n"
               "    s = s + cfg * n;\n"
               "    if (i % 8 == 3) s = s + tick(i);\n"
               "    i = i + 1;\n"
               "  }\n"
               "  return s % 1000;\n"
               "}\n"},
      {"c.mc", "int cfg;\nint tick(int n) { return cfg + n * 2; }\n"},
      // poke stores cfg and joins the web through its call to use, but
      // no chain from main ever reaches it: without the whole-program
      // verdict the web keeps its Modifies bit and pays writebacks.
      {"d.mc", "int cfg;\n"
               "int use(int n);\n"
               "void poke() { cfg = cfg + 1; use(3); }\n"}};

  PipelineConfig On = PipelineConfig::configC();
  PipelineConfig Off = PipelineConfig::configC();
  Off.ModRef = false;

  BuildResult OnB = Pipeline(On).build(Sources);
  BuildResult OffB = Pipeline(Off).build(Sources);
  ASSERT_TRUE(OnB.ok()) << OnB.text();
  ASSERT_TRUE(OffB.ok()) << OffB.text();
  RunResult OnR = runExecutable(OnB.Exe);
  RunResult OffR = runExecutable(OffB.Exe);
  ASSERT_TRUE(OnR.Halted) << OnR.Trap;
  ASSERT_TRUE(OffR.Halted) << OffR.Trap;

  // Dropping provably dead stores must not change observable behaviour.
  EXPECT_EQ(OnR.Output, OffR.Output);
  EXPECT_EQ(OnR.ExitCode, OffR.ExitCode);

  // ...but it must actually drop them: strictly fewer simulator memory
  // references, and the database carries the verdict that justifies it.
  EXPECT_LT(OnR.Stats.MemRefs, OffR.Stats.MemRefs);
  EXPECT_NE(OnB.DatabaseFile.find("modref cfg"), std::string::npos);
  EXPECT_EQ(OffB.DatabaseFile.find("modref"), std::string::npos);
}

TEST(PipelineTest, BlanketPromotionSkipsReadOnlyWritebacks) {
  // rotab's Rate and Bias are read everywhere and written nowhere
  // reachable from main. Blanket promotion (config E) dedicates a
  // register to each over the whole call graph; with the mod/ref
  // verdict the exit sync in main must not store them back, which is
  // exactly what verifyIPRA's read-only-store invariant checks.
  std::vector<SourceFile> Sources = bench::loadProgram("rotab");
  RunResult Base = runOk(Sources, PipelineConfig::baseline());

  PipelineConfig E = PipelineConfig::configE();
  PipelineConfig NoVerdicts = E;
  NoVerdicts.ModRef = false;
  BuildResult Built = Pipeline(E).build(Sources);
  ASSERT_TRUE(Built.ok()) << Built.text();
  RunResult R = runExecutable(Built.Exe);
  RunResult Before = runOk(Sources, NoVerdicts);
  ASSERT_TRUE(R.Halted) << R.Trap;
  EXPECT_EQ(R.Output, Base.Output);
  EXPECT_EQ(R.ExitCode, Base.ExitCode);
  EXPECT_LE(R.Stats.MemRefs, Before.Stats.MemRefs);

  std::vector<ObjectFile> Objects;
  for (const std::string &Text : Built.ObjectFiles) {
    ObjectFile Obj;
    std::string Error;
    ASSERT_TRUE(readObjectFile(Text, Obj, Error)) << Error;
    Objects.push_back(std::move(Obj));
  }
  ProgramDatabase DB;
  std::string Error;
  ASSERT_TRUE(ProgramDatabase::deserialize(Built.DatabaseFile, DB, Error))
      << Error;
  IPRAVerifyResult V = verifyIPRA(Objects, DB);
  for (const IPRAViolation &Violation : V.Violations)
    ADD_FAILURE() << Violation.render();
}

TEST(PipelineTest, CompileErrorsAreReported) {
  BuildResult R = Pipeline(PipelineConfig::baseline())
                      .build({{"bad.mc", "int main() { return x; }\n"}});
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.text().find("undeclared"), std::string::npos);
}

TEST(PipelineTest, LinkErrorUndefinedFunction) {
  BuildResult R = Pipeline(PipelineConfig::baseline())
                      .build({{"main.mc",
                               "int missing(int);\n"
                               "int main() { return missing(1); }\n"}});
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.text().find("missing"), std::string::npos);
}

TEST(PipelineTest, SummaryAndDatabaseArtifactsProduced) {
  BuildResult R =
      Pipeline(PipelineConfig::configC())
          .build({{"main.mc", "int g;\n"
                              "int main() { g = 1; return g; }\n"}});
  ASSERT_TRUE(R.ok()) << R.text();
  EXPECT_EQ(R.SummaryFiles.size(), 2u); // main.mc + runtime.
  EXPECT_NE(R.DatabaseFile.find("proc main"), std::string::npos);
}

TEST(PipelineTest, DeepRecursionRunsCorrectly) {
  const char *Src =
      "int even(int n);\n"
      "int odd(int n) { if (n == 0) return 0; return even(n - 1); }\n"
      "int even(int n) { if (n == 0) return 1; return odd(n - 1); }\n"
      "int main() { print(even(100)); print(odd(77)); return 0; }\n";
  for (auto Config :
       {PipelineConfig::baseline(), PipelineConfig::configA(),
        PipelineConfig::configC()}) {
    RunResult R = runOk({{"main.mc", Src}}, Config);
    EXPECT_EQ(R.Output, "1\n1\n");
  }
}

TEST(PipelineTest, CallerSavePropagationKeepsValuesInCallerSaves) {
  // 'tick' uses almost no caller-saves registers; with the 7.6.2
  // caller-saves propagation, 'loop' can keep its live values in
  // caller-saves registers across the calls instead of saving
  // callee-saves registers - the save/restore traffic drops.
  const char *Src =
      "int acc;\n"
      "int tick(int x) { return x + 1; }\n"
      "int loop(int n) {\n"
      "  int a = n * 3; int b = n * 5; int c = n * 7;\n"
      "  for (int i = 0; i < n; i = i + 1) {\n"
      "    a = a + tick(b); b = b + tick(c); c = c + tick(a);\n"
      "  }\n"
      "  return a + b + c;\n"
      "}\n"
      "int main() {\n"
      "  for (int r = 0; r < 50; r = r + 1)\n"
      "    acc = (acc + loop(20)) % 1000000;\n"
      "  print(acc);\n"
      "  return 0;\n"
      "}\n";
  std::vector<SourceFile> Sources = {{"prog.mc", Src}};
  PipelineConfig Plain = PipelineConfig::configA();
  PipelineConfig CSP = PipelineConfig::configA();
  CSP.CallerSavePropagation = true;

  RunResult Without = runOk(Sources, Plain);
  RunResult With = runOk(Sources, CSP);
  EXPECT_EQ(With.Output, Without.Output);
  // Fewer save/restore singleton references, never more cycles than a
  // small tolerance (the feature only removes work).
  EXPECT_LT(With.Stats.SingletonRefs, Without.Stats.SingletonRefs);
  EXPECT_LE(With.Stats.Cycles, Without.Stats.Cycles);
}

TEST(PipelineTest, WebSplittingPromotesSparseWebRegions) {
  // Two hot two-procedure regions reference g at the ends of a long cold
  // call chain. The unsplit web spans the chain, is discarded as sparse,
  // and plain config C leaves g in memory (the level-2 local promotion
  // must sync around every helper call). With 7.6.1 splitting, each
  // region keeps g in its dedicated register ACROSS its internal calls;
  // only the rare descent through the chain is wrapped.
  std::string Src = "int g;\n";
  Src += "int bhelp(int i) { g = g + i; return g; }\n";
  Src += "int bottom(int n) { int s = 0; g = g + 1;"
         " for (int i = 0; i < n; i = i + 1) s = s + bhelp(i);"
         " return s; }\n";
  std::string Prev = "bottom";
  for (int I = 0; I < 18; ++I) {
    std::string Name = "mid" + std::to_string(I);
    Src += "int " + Name + "(int n) { return " + Prev + "(n) + 1; }\n";
    Prev = Name;
  }
  Src += "int thelp(int i) { g = g + i; return g; }\n";
  Src += "int main() {\n"
         "  int r = 0;\n"
         "  for (int i = 0; i < 80; i = i + 1) {\n"
         "    g = g + 1;\n"
         "    r = r + thelp(i);\n"
         "  }\n"
         "  r = r + " + Prev + "(30);\n"
         "  for (int i = 0; i < 80; i = i + 1) {\n"
         "    g = g + 1;\n"
         "    r = r + thelp(i);\n"
         "  }\n"
         "  print(r);\n"
         "  print(g);\n"
         "  return 0;\n"
         "}\n";
  std::vector<SourceFile> Sources = {{"prog.mc", Src}};

  PipelineConfig Plain = PipelineConfig::configC();
  PipelineConfig Split = PipelineConfig::configC();
  Split.SplitSparseWebs = true;

  BuildResult PlainB = Pipeline(Plain).build(Sources);
  BuildResult SplitB = Pipeline(Split).build(Sources);
  ASSERT_TRUE(PlainB.ok()) << PlainB.text();
  ASSERT_TRUE(SplitB.ok()) << SplitB.text();
  RunResult PlainR = runExecutable(PlainB.Exe);
  RunResult SplitR = runExecutable(SplitB.Exe);
  ASSERT_TRUE(PlainR.Halted) << PlainR.Trap;
  ASSERT_TRUE(SplitR.Halted) << SplitR.Trap;
  EXPECT_EQ(SplitR.Output, PlainR.Output);

  EXPECT_EQ(PlainB.Analyzer.SplitWebs, 0);
  EXPECT_GE(SplitB.Analyzer.SplitWebs, 2);
  EXPECT_LT(SplitR.Stats.SingletonRefs, PlainR.Stats.SingletonRefs);
  EXPECT_LT(SplitR.Stats.Cycles, PlainR.Stats.Cycles);
}

TEST(PipelineTest, WebRemergingSharesOneEntryAtTheDominator) {
  // main never touches g, so plain analysis builds two independent webs
  // rooted at a and b: each of the 120 calls pays the web-entry
  // load/store. Re-merging (§7.6.1) joins them into one web whose entry
  // is main, executed once per run.
  const char *Src =
      "int g;\n"
      "int a(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) { g = g + i; s = s + g; }\n"
      "  return s;\n"
      "}\n"
      "int b(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) { g = g + 3; s = s - g; }\n"
      "  return s;\n"
      "}\n"
      "int main() {\n"
      "  int r = 0;\n"
      "  for (int i = 0; i < 60; i = i + 1) r = r + a(10) + b(10);\n"
      "  print(r);\n"
      "  return 0;\n"
      "}\n";
  std::vector<SourceFile> Sources = {{"prog.mc", Src}};

  PipelineConfig Plain = PipelineConfig::configC();
  PipelineConfig Remerge = PipelineConfig::configC();
  Remerge.RemergeWebs = true;

  BuildResult PlainB = Pipeline(Plain).build(Sources);
  BuildResult MergedB = Pipeline(Remerge).build(Sources);
  ASSERT_TRUE(PlainB.ok()) << PlainB.text();
  ASSERT_TRUE(MergedB.ok()) << MergedB.text();
  RunResult PlainR = runExecutable(PlainB.Exe);
  RunResult MergedR = runExecutable(MergedB.Exe);
  ASSERT_TRUE(PlainR.Halted) << PlainR.Trap;
  ASSERT_TRUE(MergedR.Halted) << MergedR.Trap;
  EXPECT_EQ(MergedR.Output, PlainR.Output);

  EXPECT_EQ(PlainB.Analyzer.RemergedWebs, 0);
  EXPECT_EQ(MergedB.Analyzer.RemergedWebs, 1);
  // The per-call entry traffic on g disappears.
  EXPECT_LT(MergedR.Stats.SingletonRefs, PlainR.Stats.SingletonRefs);
  EXPECT_LT(MergedR.Stats.Cycles, PlainR.Stats.Cycles);
}

TEST(PipelineTest, DatabaseDiffDrivesSmartRecompilation) {
  // §7.1: "source level changes need to be tracked carefully and can be
  // very expensive." The database diff bounds the damage: an
  // allocation-neutral edit leaves the database identical (recompile
  // only the edited module); an edit that changes interprocedural
  // allocation names exactly the procedures whose directives moved.
  const char *Util =
      "int g;\n"
      "int step(int x) { return x + 1; }\n"
      "void touch(int n) {\n"
      "  for (int i = 0; i < n; i = i + 1) g = g + step(i);\n"
      "}\n";
  const char *Main =
      "int g;\n"
      "void touch(int n);\n"
      "int main() {\n"
      "  for (int r = 0; r < 30; r = r + 1) touch(20);\n"
      "  print(g);\n"
      "  return 0;\n"
      "}\n";
  PipelineConfig Config = PipelineConfig::configC();

  auto analyze = [&](const char *UtilSrc) {
    Pipeline P(Config);
    auto S = P.execute(BuildRequest::summary(
        Config, {{"util.mc", UtilSrc}, {"main.mc", Main}}));
    EXPECT_TRUE(S.ok());
    DatabaseResult A = P.analyze(S->Summaries);
    EXPECT_TRUE(A.ok()) << A.text();
    ProgramDatabase DB;
    std::string Error;
    EXPECT_TRUE(ProgramDatabase::deserialize(A.DatabaseText, DB, Error))
        << Error;
    return DB;
  };

  ProgramDatabase Before = analyze(Util);

  // Allocation-neutral edit: a different constant, same shape.
  const char *NeutralEdit =
      "int g;\n"
      "int step(int x) { return x + 2; }\n"
      "void touch(int n) {\n"
      "  for (int i = 0; i < n; i = i + 1) g = g + step(i);\n"
      "}\n";
  ProgramDatabase Neutral = analyze(NeutralEdit);
  EXPECT_TRUE(ProgramDatabase::diff(Before, Neutral).empty());

  // Allocation-relevant edit: touch() no longer references g at all, so
  // the web over g collapses; main (the entry holding the promoted
  // load/store) must be recompiled too.
  const char *WebKillingEdit =
      "int g;\n"
      "int step(int x) { return x + 1; }\n"
      "void touch(int n) {\n"
      "  int local = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) local = local + step(i);\n"
      "}\n";
  ProgramDatabase After = analyze(WebKillingEdit);
  auto Changed = ProgramDatabase::diff(Before, After);
  EXPECT_FALSE(Changed.empty());
  bool TouchesOtherModule = false;
  for (const std::string &Name : Changed)
    TouchesOtherModule |= Name == "main";
  EXPECT_TRUE(TouchesOtherModule)
      << "edit in util.mc changed main's directives but diff missed it";
}

TEST(PipelineTest, CrossModuleStaticWebNotPromoted) {
  // b.mc's static s is used in a hot region whose web entry would land
  // in a.mc: §7.4 says the analyzer discards such webs. The program must
  // still run correctly and the database must not promote the static at
  // the foreign entry.
  const char *ModA =
      "int bwork(int n);\n"
      "int drive(int n) {\n"  // Would-be entry node in a.mc.
      "  int r = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) r = r + bwork(i);\n"
      "  return r;\n"
      "}\n"
      "int main() { print(drive(50)); return 0; }\n";
  const char *ModB =
      "static int s;\n"
      "int bwork(int n) { s = s + n; return s; }\n";
  std::vector<SourceFile> Sources = {{"a.mc", ModA}, {"b.mc", ModB}};

  RunResult Base = runOk(Sources, PipelineConfig::baseline());
  BuildResult Built = Pipeline(PipelineConfig::configC()).build(Sources);
  ASSERT_TRUE(Built.ok()) << Built.text();
  RunResult R = runExecutable(Built.Exe);
  ASSERT_TRUE(R.Halted) << R.Trap;
  EXPECT_EQ(R.Output, Base.Output);

  // No directive in a.mc's procedures may promote b.mc:s.
  ProgramDatabase DB;
  std::string Error;
  ASSERT_TRUE(ProgramDatabase::deserialize(Built.DatabaseFile, DB, Error));
  for (const char *Proc : {"main", "drive"})
    for (const PromotedGlobal &P : DB.lookup(Proc).Promoted)
      EXPECT_NE(P.QualName, "b.mc:s") << Proc;
}

TEST(PipelineTest, RuntimePrintsParticipatesInAnalysis) {
  // __prints comes from the injected runtime module and shows up in the
  // summaries and the database like any other procedure.
  BuildResult R =
      Pipeline(PipelineConfig::configC())
          .build({{"m.mc", "int main() { prints(\"hi\"); return 0; }\n"}});
  ASSERT_TRUE(R.ok()) << R.text();
  bool Found = false;
  for (const std::string &S : R.SummaryFiles)
    Found |= S.find("proc __prints") != std::string::npos;
  EXPECT_TRUE(Found);
  EXPECT_NE(R.DatabaseFile.find("proc __prints"), std::string::npos);
}

TEST(PipelineTest, ApproximateSummariesStaySound) {
  // §7.1 sketches the R^n environment: "The module editor used to
  // create source files could generate APPROXIMATE summary
  // information." Degrade every summary's callee-saves estimate to zero
  // (the editor cannot run trial code generation) and re-run the
  // analyzer + second phase: the directives may be worse, but the
  // program must behave identically - set semantics are enforced by the
  // allocator, not by trusting the estimates.
  std::vector<SourceFile> Sources = {
      {"work.mc",
       "int acc; int calls;\n"
       "int work(int n) {\n"
       "  calls = calls + 1;\n"
       "  int a = n * 3; int b = a + n; int c = b * a; int d = c - b;\n"
       "  acc = acc + d;\n"
       "  return d;\n"
       "}\n"},
      {"main.mc",
       "int work(int n);\n"
       "int acc; int calls;\n"
       "int main() {\n"
       "  int r = 0;\n"
       "  for (int i = 0; i < 40; i = i + 1) r = r + work(i);\n"
       "  print(r); print(acc); print(calls);\n"
       "  return 0;\n"
       "}\n"}};
  PipelineConfig Config = PipelineConfig::configC();

  RunResult Exact = runOk(Sources, Config);

  std::vector<SourceFile> All = Sources;
  All.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  Pipeline P(Config);
  std::vector<std::string> Degraded;
  for (const SourceFile &Src : All) {
    auto P1 = P.execute(BuildRequest::summary(Config, {Src}));
    ASSERT_TRUE(P1.ok()) << P1.text();
    ModuleSummary S;
    std::string Error;
    ASSERT_TRUE(readSummary(P1->Summaries[0], S, Error)) << Error;
    for (ProcSummary &P : S.Procs) {
      P.CalleeRegsNeeded = 0; // The "approximate" editor estimate.
      P.CallerRegsUsed = 0;
    }
    Degraded.push_back(writeSummary(S));
  }
  DatabaseResult Analyzed = P.analyze(Degraded);
  ASSERT_TRUE(Analyzed.ok()) << Analyzed.text();

  std::vector<std::string> Objects;
  for (const SourceFile &Src : All) {
    auto P2 =
        P.execute(BuildRequest::object(Config, {Src}, Analyzed.DatabaseText));
    ASSERT_TRUE(P2.ok()) << Src.Name << ": " << P2.text();
    Objects.push_back(P2->Objects[0]);
  }
  auto Linked = P.execute(BuildRequest::link(Objects));
  ASSERT_TRUE(Linked.ok()) << Linked.text();
  RunResult R = runExecutable(Linked->Exe, 500'000'000);
  ASSERT_TRUE(R.Halted) << R.Trap;
  EXPECT_EQ(R.Output, Exact.Output);
  EXPECT_EQ(R.ExitCode, Exact.ExitCode);
}

TEST(PipelineTest, SeparateCompilationMatchesMonolithic) {
  // The paper's headline property: with the database precomputed,
  // modules compile independently and IN ANY ORDER. Run the phases by
  // hand - phase 1 per module, analyzer, phase 2 per module in REVERSE
  // order - link the textual objects, and compare against the fused
  // pipeline.
  std::vector<SourceFile> Sources = {
      {"lib.mc", "int counter;\n"
                 "int bump(int x) { counter = counter + x;"
                 " return counter; }\n"},
      {"util.mc", "int counter;\n"
                  "int bump(int x);\n"
                  "int twice(int x) { return bump(x) + bump(x); }\n"},
      {"main.mc", "int counter;\n"
                  "int twice(int x);\n"
                  "int main() {\n"
                  "  int r = 0;\n"
                  "  for (int i = 0; i < 30; i = i + 1) r = r + twice(i);\n"
                  "  print(r);\n"
                  "  print(counter);\n"
                  "  return 0;\n"
                  "}\n"}};
  PipelineConfig Config = PipelineConfig::configC();

  // Fused pipeline (adds the runtime module itself).
  RunResult Fused = runOk(Sources, Config);

  // Hand-run phases, runtime module included explicitly, each phase in
  // a fresh Pipeline so nothing is shared but the textual artifacts.
  std::vector<SourceFile> All = Sources;
  All.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});

  std::vector<std::string> Summaries;
  for (const SourceFile &Src : All) {
    auto P1 = Pipeline(Config).execute(BuildRequest::summary(Config, {Src}));
    ASSERT_TRUE(P1.ok()) << Src.Name << ": " << P1.text();
    Summaries.push_back(P1->Summaries[0]);
  }
  DatabaseResult Analyzed = Pipeline(Config).analyze(Summaries);
  ASSERT_TRUE(Analyzed.ok()) << Analyzed.text();

  std::vector<std::string> Objects;
  for (auto It = All.rbegin(); It != All.rend(); ++It) { // Reverse!
    auto P2 = Pipeline(Config).execute(
        BuildRequest::object(Config, {*It}, Analyzed.DatabaseText));
    ASSERT_TRUE(P2.ok()) << It->Name << ": " << P2.text();
    Objects.push_back(P2->Objects[0]);
  }
  auto Linked = Pipeline(Config).execute(BuildRequest::link(Objects));
  ASSERT_TRUE(Linked.ok()) << Linked.text();

  RunResult R = runExecutable(Linked->Exe);
  ASSERT_TRUE(R.Halted) << R.Trap;
  EXPECT_EQ(R.Output, Fused.Output);
  EXPECT_EQ(R.ExitCode, Fused.ExitCode);
  // Same code quality too: identical cycle counts.
  EXPECT_EQ(R.Stats.Cycles, Fused.Stats.Cycles);
  EXPECT_EQ(R.Stats.SingletonRefs, Fused.Stats.SingletonRefs);
}

TEST(PipelineTest, ProfileCollectionMatchesCallStructure) {
  const char *Src =
      "void cb() { }\n"
      "void mid() { cb(); cb(); }\n"
      "int main() { mid(); mid(); mid(); return 0; }\n";
  RunResult R = runOk({{"main.mc", Src}}, PipelineConfig::baseline());
  EXPECT_EQ(R.Profile.CallCounts.at("mid"), 3);
  EXPECT_EQ(R.Profile.CallCounts.at("cb"), 6);
  EXPECT_EQ((R.Profile.EdgeCounts.at({"mid", "cb"})), 6);
  EXPECT_EQ((R.Profile.EdgeCounts.at({"main", "mid"})), 3);
}

//===--------------------------------------------------------------------===//
// Parallel pipeline: determinism across thread counts and the
// PipelineStats instrumentation.
//===--------------------------------------------------------------------===//

std::vector<SourceFile> multiModuleSources() {
  return {
      {"math.mc", "int gcounter;\n"
                  "int square(int x) { return x * x; }\n"
                  "int cube(int x) { gcounter = gcounter + 1;"
                  " return x * square(x); }\n"},
      {"accum.mc", "int gcounter;\n"
                   "int square(int);\n"
                   "int total;\n"
                   "void add(int x) { total = total + square(x); }\n"
                   "int get() { return total + gcounter; }\n"},
      {"main.mc", "int cube(int);\n"
                  "void add(int);\n"
                  "int get();\n"
                  "int main() {\n"
                  "  for (int i = 1; i <= 8; i = i + 1) add(cube(i));\n"
                  "  print(get());\n"
                  "  return 0;\n"
                  "}\n"},
  };
}

/// Phase 1's summary texts for multiModuleSources() plus the runtime.
std::vector<std::string> phase1Texts(const PipelineConfig &Config) {
  std::vector<SourceFile> All = multiModuleSources();
  All.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  Result<BuildResponse> R =
      Pipeline(Config).execute(BuildRequest::summary(Config, All));
  EXPECT_TRUE(R.ok()) << R.text();
  return R.Value.Summaries;
}

/// \p Text with its first procedure's register need raised by \p By: a
/// one-module summary edit.
std::string editedSummary(const std::string &Text, unsigned By) {
  ModuleSummary S;
  std::string Error;
  EXPECT_TRUE(readSummary(Text, S, Error)) << Error;
  S.Procs.front().CalleeRegsNeeded += By;
  return writeSummary(S);
}

/// The database a fresh pipeline produces from \p Texts.
std::string coldDatabase(const PipelineConfig &Config,
                         const std::vector<std::string> &Texts) {
  DatabaseResult R = Pipeline(Config).analyze(Texts);
  EXPECT_TRUE(R.ok()) << R.text();
  return R.DatabaseText;
}

TEST(PipelineTest, AnalyzeParsesOnlySummariesItHasNotSeen) {
  for (bool Delta : {false, true}) {
    SCOPED_TRACE(Delta ? "delta" : "cold");
    PipelineConfig Config = PipelineConfig::configC();
    Config.DeltaAnalysis = Delta;
    std::vector<std::string> Texts = phase1Texts(Config);
    Pipeline P(Config);
    Result<BuildResponse> First =
        P.execute(BuildRequest::analyze(Config, Texts));
    ASSERT_TRUE(First.ok()) << First.text();
    EXPECT_EQ(First.Value.Stats.SummariesParsed, Texts.size());

    Texts[1] = editedSummary(Texts[1], 3);
    Result<BuildResponse> Edited =
        P.execute(BuildRequest::analyze(Config, Texts));
    ASSERT_TRUE(Edited.ok()) << Edited.text();
    EXPECT_EQ(Edited.Value.Stats.SummariesParsed, 1u);
    EXPECT_EQ(Edited.Value.Stats.AnalyzerCacheMisses, 1u);
    EXPECT_EQ(Edited.Value.Database, coldDatabase(Config, Texts));

    // Reuse is by content, not position: a reordered request parses
    // nothing.
    std::swap(Texts[0], Texts[2]);
    Result<BuildResponse> Swapped =
        P.execute(BuildRequest::analyze(Config, Texts));
    ASSERT_TRUE(Swapped.ok()) << Swapped.text();
    EXPECT_EQ(Swapped.Value.Stats.SummariesParsed, 0u);
    EXPECT_EQ(Swapped.Value.Database, coldDatabase(Config, Texts));
  }
}

TEST(PipelineTest, BadSummaryInPlaceOfASeenOneFailsAsInAFreshPipeline) {
  PipelineConfig Config = PipelineConfig::configC();
  Config.DeltaAnalysis = true;
  const std::vector<std::string> Texts = phase1Texts(Config);
  auto Session = std::make_shared<AnalyzerSession>();
  Pipeline P(Config, nullptr, Session);
  ASSERT_TRUE(P.analyze(Texts).ok());

  // Unparsable text, then a summary from another compiler
  // configuration ahead of it: the first failure in text order wins,
  // with the message a pipeline that never saw the texts gives.
  std::vector<std::string> Bad = Texts;
  Bad[2] = Texts[2] + "bogus record\n";
  ModuleSummary Foreign;
  std::string Error;
  ASSERT_TRUE(readSummary(Texts[1], Foreign, Error)) << Error;
  Foreign.ConfigFingerprint = "0123456789abcdef";
  for (int Step = 0; Step < 2; ++Step) {
    DatabaseResult Warm = P.analyze(Bad);
    DatabaseResult Cold = Pipeline(Config).analyze(Bad);
    EXPECT_FALSE(Warm.ok());
    EXPECT_FALSE(Cold.ok());
    EXPECT_EQ(Warm.text(), Cold.text());
    Bad[1] = writeSummary(Foreign);
  }

  // Summaries the session kept are checked against each pipeline's own
  // configuration too.
  PipelineConfig Other = Config;
  Other.LocalGlobalPromotion = !Other.LocalGlobalPromotion;
  ASSERT_NE(Other.compileFingerprint(), Config.compileFingerprint());
  DatabaseResult Warm = Pipeline(Other, nullptr, Session).analyze(Texts);
  DatabaseResult Cold = Pipeline(Other).analyze(Texts);
  EXPECT_FALSE(Warm.ok());
  EXPECT_EQ(Warm.text(), Cold.text());

  // A failed request leaves the kept summaries as they were.
  Result<BuildResponse> Again = P.execute(BuildRequest::analyze(Config, Texts));
  ASSERT_TRUE(Again.ok()) << Again.text();
  EXPECT_EQ(Again.Value.Stats.SummariesParsed, 0u);
}

// A phase-1 cache entry with one corrupted digit is a miss rather than
// a different summary: the module recompiles, and every artifact equals
// a cold build's.
TEST(PipelineTest, CorruptedPhase1CacheEntryIsAMiss) {
  namespace fs = std::filesystem;
  struct TempDir {
    fs::path Path = fs::temp_directory_path() /
                    ("ipra_pipeline_corrupt_" + std::to_string(::getpid()));
    TempDir() { fs::create_directories(Path); }
    ~TempDir() { fs::remove_all(Path); }
  } Dir;
  PipelineConfig Config = PipelineConfig::configC();
  Config.CacheDir = Dir.Path.string();
  const std::vector<SourceFile> Sources = bench::loadProgram("dhry");
  BuildResult Cold = Pipeline(Config).build(Sources);
  ASSERT_TRUE(Cold.ok()) << Cold.text();

  size_t Corrupted = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir.Path)) {
    std::ifstream In(E.path(), std::ios::binary);
    std::string Text{std::istreambuf_iterator<char>(In), {}};
    In.close();
    const size_t Freq = Text.find(" freq=");
    if (Corrupted > 0 || !Text.starts_with("summary-format") ||
        Freq == std::string::npos)
      continue;
    Text[Freq + 6] = 'z';
    std::ofstream(E.path(), std::ios::binary | std::ios::trunc) << Text;
    ++Corrupted;
  }
  ASSERT_EQ(Corrupted, 1u);

  BuildResult Warm = Pipeline(Config).build(Sources);
  ASSERT_TRUE(Warm.ok()) << Warm.text();
  EXPECT_EQ(Warm.Stats.Phase1CacheMisses, 1u);
  EXPECT_EQ(Warm.Stats.Phase1CacheHits, Warm.Stats.Modules.size() - 1);
  EXPECT_EQ(Warm.SummaryFiles, Cold.SummaryFiles);
  EXPECT_EQ(Warm.DatabaseFile, Cold.DatabaseFile);
  EXPECT_EQ(Warm.ObjectFiles, Cold.ObjectFiles);
}

// Every cache entry is a function of the build's inputs, the analyzer
// entry's statistics line included: two cold builds of one program into
// two fresh cache directories publish the same files byte for byte, and
// a build served from the cache reports zero time for the analyzer
// sub-phases it skipped.
TEST(PipelineTest, ColdBuildsPublishIdenticalCacheEntries) {
  namespace fs = std::filesystem;
  auto Publish = [](const std::string &Tag) {
    fs::path Dir = fs::temp_directory_path() /
                   ("ipra_pipeline_entries_" + Tag + "_" +
                    std::to_string(::getpid()));
    fs::remove_all(Dir);
    PipelineConfig Config = PipelineConfig::configC();
    Config.CacheDir = Dir.string();
    BuildResult Cold = Pipeline(Config).build(bench::loadProgram("crtool"));
    EXPECT_TRUE(Cold.ok()) << Cold.text();
    BuildResult Warm = Pipeline(Config).build(bench::loadProgram("crtool"));
    EXPECT_TRUE(Warm.ok()) << Warm.text();
    EXPECT_EQ(Warm.Stats.AnalyzerCacheHits, 1u);
    EXPECT_EQ(Warm.Analyzer.RefSetsMs + Warm.Analyzer.ModRefMs +
                  Warm.Analyzer.WebsMs + Warm.Analyzer.ColoringMs +
                  Warm.Analyzer.ClustersMs + Warm.Analyzer.RegSetsMs,
              0.0);
    EXPECT_EQ(Warm.Analyzer.ColoredWebs, Cold.Analyzer.ColoredWebs);
    std::map<std::string, std::string> Entries;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
      std::ifstream In(E.path(), std::ios::binary);
      Entries[E.path().filename().string()] =
          std::string(std::istreambuf_iterator<char>(In), {});
    }
    fs::remove_all(Dir);
    return Entries;
  };
  std::map<std::string, std::string> First = Publish("a");
  std::map<std::string, std::string> Second = Publish("b");
  // Summaries, objects and the analyzer entry.
  EXPECT_GT(First.size(), 2u);
  EXPECT_TRUE(std::any_of(First.begin(), First.end(), [](const auto &E) {
    return E.second.find("\"refsets-ms\":0,") != std::string::npos;
  }));
  EXPECT_EQ(First, Second);
}

TEST(ParallelPipelineTest, SharedSessionAnalysesAgree) {
  // The build service's shape: one analyzer session per program, shared
  // by every pipeline that builds it, with requests on several threads.
  PipelineConfig Config = PipelineConfig::configC();
  Config.DeltaAnalysis = true;
  const std::vector<std::string> Base = phase1Texts(Config);
  constexpr int Rounds = 6;
  std::vector<std::vector<std::string>> Requests;
  for (int R = 0; R < Rounds; ++R) {
    std::vector<std::string> Texts = Base;
    size_t M = static_cast<size_t>(R) % Texts.size();
    Texts[M] = editedSummary(Texts[M], static_cast<unsigned>(R % 3) + 1);
    Requests.push_back(std::move(Texts));
  }

  auto Session = std::make_shared<AnalyzerSession>();
  std::vector<std::string> Got[2];
  std::vector<std::thread> Threads;
  for (int T = 0; T < 2; ++T)
    Threads.emplace_back([&, T] {
      Pipeline P(Config, nullptr, Session); // Private cache: every miss
                                            // reaches the session.
      for (const std::vector<std::string> &Texts : Requests)
        Got[T].push_back(P.analyze(Texts).DatabaseText);
    });
  for (std::thread &T : Threads)
    T.join();
  for (int R = 0; R < Rounds; ++R) {
    std::string Cold = coldDatabase(Config, Requests[R]);
    EXPECT_EQ(Got[0][R], Cold) << "round " << R;
    EXPECT_EQ(Got[1][R], Cold) << "round " << R;
  }
}

TEST(ParallelPipelineTest, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  for (PipelineConfig Config :
       {PipelineConfig::baseline(), PipelineConfig::configC()}) {
    Config.NumThreads = 1;
    BuildResult Serial = Pipeline(Config).build(multiModuleSources());
    ASSERT_TRUE(Serial.ok()) << Serial.text();
    Config.NumThreads = 8;
    BuildResult Parallel = Pipeline(Config).build(multiModuleSources());
    ASSERT_TRUE(Parallel.ok()) << Parallel.text();

    EXPECT_EQ(Serial.SummaryFiles, Parallel.SummaryFiles);
    EXPECT_EQ(Serial.DatabaseFile, Parallel.DatabaseFile);
    EXPECT_EQ(Serial.ObjectFiles, Parallel.ObjectFiles);

    RunResult SerialRun = runExecutable(Serial.Exe);
    RunResult ParallelRun = runExecutable(Parallel.Exe);
    EXPECT_EQ(SerialRun.Output, ParallelRun.Output);
    EXPECT_EQ(SerialRun.Stats.Cycles, ParallelRun.Stats.Cycles);
  }
}

TEST(ParallelPipelineTest, ErrorsAreDeterministicAcrossThreadCounts) {
  std::vector<SourceFile> Bad = {
      {"a.mc", "int f() { return oops; }\n"},
      {"b.mc", "int g() { return worse; }\n"},
      {"main.mc", "int main() { return 0; }\n"},
  };
  PipelineConfig Config = PipelineConfig::baseline();
  Config.NumThreads = 1;
  BuildResult Serial = Pipeline(Config).build(Bad);
  Config.NumThreads = 8;
  BuildResult Parallel = Pipeline(Config).build(Bad);
  EXPECT_FALSE(Serial.ok());
  EXPECT_FALSE(Parallel.ok());
  EXPECT_EQ(Serial.text(), Parallel.text());
  EXPECT_NE(Serial.text().find("oops"), std::string::npos);
  EXPECT_NE(Serial.text().find("worse"), std::string::npos);
}

// The optimizer's and the allocator's work counters are exact: the same
// build gives the same counts at any thread count and on every run.
TEST(ParallelPipelineTest, WorkCountersAreExact) {
  auto Counters = [](unsigned Threads) {
    PipelineConfig Config = PipelineConfig::configC();
    Config.NumThreads = Threads;
    BuildResult R = Pipeline(Config).build(bench::loadProgram("paopt"));
    EXPECT_TRUE(R.ok()) << R.text();
    const PipelineStats &PS = R.Stats;
    EXPECT_NE(PS.toString(R.Analyzer, R.Delta).find("spilled-vregs="),
              std::string::npos);
    return std::vector<unsigned long long>{
        PS.Work.Opt.Rounds, PS.Work.Opt.PassRuns, PS.Work.Opt.PassChanges,
        PS.Work.RegAllocRounds, PS.Work.SpilledVRegs};
  };
  std::vector<unsigned long long> Serial = Counters(1);
  EXPECT_EQ(Counters(1), Serial);
  EXPECT_EQ(Counters(4), Serial);
  // Rounds <= pass runs, changes <= pass runs, and every function's
  // allocation takes at least one round.
  EXPECT_GT(Serial[0], 0u);
  EXPECT_LE(Serial[0], Serial[1]);
  EXPECT_LE(Serial[2], Serial[1]);
  EXPECT_GT(Serial[3], 0u);
}

TEST(ParallelPipelineTest, PipelineStatsArePopulated) {
  PipelineConfig Config = PipelineConfig::configC();
  Config.NumThreads = 2;
  BuildResult R = Pipeline(Config).build(multiModuleSources());
  ASSERT_TRUE(R.ok()) << R.text();

  const PipelineStats &PS = R.Stats;
  EXPECT_EQ(PS.ThreadsUsed, 2u);
  ASSERT_EQ(PS.Modules.size(), 4u); // 3 sources + runtime.
  EXPECT_EQ(PS.Modules[0].Name, "math.mc");
  EXPECT_EQ(PS.Modules[3].Name, "__runtime.mc");
  EXPECT_GT(PS.TotalMs, 0.0);
  EXPECT_GE(PS.TotalMs,
            PS.FrontEndMs); // Phase timers nest inside the total.
  EXPECT_GT(PS.Modules[2].Functions, 0u);

  size_t SummaryBytes = 0;
  for (const std::string &S : R.SummaryFiles)
    SummaryBytes += S.size();
  EXPECT_EQ(PS.SummaryBytes, SummaryBytes);
  EXPECT_EQ(PS.DatabaseBytes, R.DatabaseFile.size());
  size_t ObjectBytes = 0;
  for (const std::string &O : R.ObjectFiles)
    ObjectBytes += O.size();
  EXPECT_EQ(PS.ObjectBytes, ObjectBytes);

  std::string Report = PS.toString(R.Analyzer, R.Delta);
  EXPECT_NE(Report.find("pipeline: threads-used=2 "), std::string::npos);
  EXPECT_NE(Report.find("]: name=\"main.mc\" "), std::string::npos);
  EXPECT_NE(Report.find(" database-bytes=" +
                        std::to_string(R.DatabaseFile.size()) + " "),
            std::string::npos);
}

/// Calls \p F(Key, Field) for every row of \p Rec's field list, and for
/// every row of each record it nests, lists included.
template <typename R, typename Fn> void forEachRow(const R &Rec, Fn &&F) {
  R::fields(Rec, [&](const char *Key, const auto &M) {
    using T = std::remove_cvref_t<decltype(M)>;
    F(std::string(Key), M);
    if constexpr (record::Record<T>)
      forEachRow(M, F);
    else if constexpr (json::IsVector<T>::value)
      forEachRow(typename T::value_type(), F);
  });
}

// --stats is a view over the field lists: every key of the pipeline's,
// the modules', the cache's, the analyzer's and the delta analyzer's
// records appears in the text of a configuration-C build, a leaf as
// " key=", a nested record as "key:" and a list as "key[0]:".
TEST(ParallelPipelineTest, StatsTextPrintsEveryListedKey) {
  BuildResult R = Pipeline(PipelineConfig::configC()).build(
      multiModuleSources());
  ASSERT_TRUE(R.ok()) << R.text();
  const std::string Report = R.Stats.toString(R.Analyzer, R.Delta);
  size_t Keys = 0;
  auto Expect = [&](const std::string &Key, const auto &F) {
    using T = std::remove_cvref_t<decltype(F)>;
    const std::string Form = record::Record<T>         ? "  " + Key + ":"
                             : json::IsVector<T>::value ? "  " + Key + "[0]:"
                                                        : " " + Key + "=";
    EXPECT_NE(Report.find(Form), std::string::npos) << Form << "\n" << Report;
    ++Keys;
  };
  forEachRow(R.Stats, Expect);
  forEachRow(R.Analyzer, Expect);
  forEachRow(R.Delta, Expect);
  EXPECT_GE(Keys, 31u + 15u + 10u + 26u + 7u);
}

// The timing mark is the one thing that tells a timing from a counter:
// every floating-point leaf of the statistics records has a "-ms" key
// and no other leaf does. A new timing then cannot reach the analyzer
// cache entry unzeroed, and a new counter cannot be zeroed by mistake.
TEST(ParallelPipelineTest, TimingsAndOnlyTimingsCarryTheMark) {
  auto Check = [](const std::string &Key, const auto &F) {
    using T = std::remove_cvref_t<decltype(F)>;
    if constexpr (std::is_floating_point_v<T>)
      EXPECT_TRUE(record::isTiming(Key)) << Key;
    else
      EXPECT_FALSE(record::isTiming(Key)) << Key;
  };
  forEachRow(PipelineStats(), Check);
  forEachRow(AnalyzerStats(), Check);
  forEachRow(DeltaStats(), Check);

  AnalyzerStats A;
  A.RefSetsMs = A.ModRefMs = A.WebsMs = A.ColoringMs = A.ClustersMs =
      A.RegSetsMs = 1.5;
  A.TotalWebs = 7;
  record::zeroTimings(A);
  EXPECT_EQ(json::encode(A).dump(), [] {
    AnalyzerStats Want;
    Want.TotalWebs = 7;
    return json::encode(Want).dump();
  }());
}

} // namespace
