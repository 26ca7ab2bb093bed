//===- summary_test.cpp - Summary record and serialization tests ----------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "opt/Passes.h"
#include "summary/Summary.h"

#include <gtest/gtest.h>

using namespace ipra;
using ipra::test::compileToIR;

namespace {

ModuleSummary summarize(const std::string &Source,
                        std::map<std::string, TrialCodeGenInfo> Estimates = {}) {
  DiagnosticEngine Diags;
  auto M = compileToIR("test.mc", Source, Diags);
  EXPECT_TRUE(M) << Diags.renderAll();
  OptOptions Options;
  Options.LocalGlobalPromotion = false;
  optimizeModule(*M, Options);
  return buildModuleSummary(*M, Estimates);
}

const ProcSummary *findProc(const ModuleSummary &S,
                            const std::string &Name) {
  for (const ProcSummary &P : S.Procs)
    if (P.QualName == Name)
      return &P;
  return nullptr;
}

TEST(SummaryTest, GlobalRefsWithFrequencyAndStores) {
  ModuleSummary S = summarize(
      "int g; int h;\n"
      "int f(int n) {\n"
      "  for (int i = 0; i < n; i = i + 1) g = g + 1;\n" // In a loop.
      "  return h;\n"                                    // Outside.
      "}\n");
  const ProcSummary *F = findProc(S, "f");
  ASSERT_TRUE(F);
  long long GFreq = 0, HFreq = 0;
  bool GStores = false, HStores = false;
  for (const GlobalRefSummary &R : F->GlobalRefs) {
    if (R.QualName == "g") {
      GFreq = R.Freq;
      GStores = R.Stores;
    }
    if (R.QualName == "h") {
      HFreq = R.Freq;
      HStores = R.Stores;
    }
  }
  EXPECT_GT(GFreq, HFreq); // Loop-nested references weigh more.
  EXPECT_TRUE(GStores);
  EXPECT_FALSE(HStores);
}

TEST(SummaryTest, CallFrequenciesWeightedByLoops) {
  ModuleSummary S = summarize(
      "void cold() { }\n"
      "void hot() { }\n"
      "void f(int n) {\n"
      "  cold();\n"
      "  for (int i = 0; i < n; i = i + 1) hot();\n"
      "}\n");
  const ProcSummary *F = findProc(S, "f");
  ASSERT_TRUE(F);
  long long Cold = 0, Hot = 0;
  for (const CallSummary &C : F->Calls) {
    if (C.QualCallee == "cold")
      Cold = C.Freq;
    if (C.QualCallee == "hot")
      Hot = C.Freq;
  }
  EXPECT_GT(Hot, Cold);
}

TEST(SummaryTest, StaticsQualified) {
  ModuleSummary S = summarize("static int s;\n"
                              "static int helper() { return s; }\n"
                              "int f() { return helper(); }\n");
  bool FoundStatic = false;
  for (const GlobalSummary &G : S.Globals)
    if (G.QualName == "test.mc:s") {
      FoundStatic = true;
      EXPECT_TRUE(G.IsStatic);
    }
  EXPECT_TRUE(FoundStatic);
  const ProcSummary *F = findProc(S, "f");
  ASSERT_TRUE(F);
  ASSERT_EQ(F->Calls.size(), 1u);
  EXPECT_EQ(F->Calls[0].QualCallee, "test.mc:helper");
}

TEST(SummaryTest, AliasedAndArrayFlags) {
  ModuleSummary S = summarize("int ok;\nint aliased;\nint arr[4];\n"
                              "int f() { int *p = &aliased; return *p + "
                              "ok + arr[0]; }\n");
  for (const GlobalSummary &G : S.Globals) {
    if (G.QualName == "ok") {
      EXPECT_TRUE(G.IsScalar);
      EXPECT_FALSE(G.Aliased);
    } else if (G.QualName == "aliased") {
      EXPECT_TRUE(G.Aliased);
    } else if (G.QualName == "arr") {
      EXPECT_FALSE(G.IsScalar);
    }
  }
}

TEST(SummaryTest, IndirectCallsAndAddressTaken) {
  ModuleSummary S = summarize("int cb(int x) { return x; }\n"
                              "func h;\n"
                              "int f() { h = &cb; return h(3); }\n");
  const ProcSummary *F = findProc(S, "f");
  ASSERT_TRUE(F);
  EXPECT_TRUE(F->MakesIndirectCalls);
  EXPECT_GT(F->IndirectCallFreq, 0);
  ASSERT_EQ(F->AddressTakenProcs.size(), 1u);
  EXPECT_EQ(F->AddressTakenProcs[0], "cb");
}

TEST(SummaryTest, AddressOfExternalFunctionRecorded) {
  // Regression (found by the IR-interpreter differential): '&f' where f
  // is only forward-declared in this module must still mark f as a
  // possible indirect target, or the analyzer never sees the indirect
  // edge and promotes webs that exclude f's references.
  ModuleSummary S = summarize("int external(int a, int b);\n"
                              "func fp;\n"
                              "int f() { fp = &external; return fp(1, 2);"
                              " }\n");
  const ProcSummary *F = findProc(S, "f");
  ASSERT_TRUE(F);
  ASSERT_EQ(F->AddressTakenProcs.size(), 1u);
  EXPECT_EQ(F->AddressTakenProcs[0], "external");
}

TEST(SummaryTest, AddressOfDataGlobalNotAnIndirectTarget) {
  ModuleSummary S = summarize(
      "int arr[4];\n"
      "int use(int *p) { return p[0]; }\n"
      "int f() { prints(\"x\"); return use(arr); }\n");
  // Neither the array nor the string literal may appear as an
  // address-taken *procedure*.
  for (const ProcSummary &P : S.Procs)
    for (const std::string &A : P.AddressTakenProcs) {
      EXPECT_EQ(A.find("arr"), std::string::npos);
      EXPECT_EQ(A.find(".str"), std::string::npos);
    }
}

TEST(SummaryTest, FuncInitializerRecordsAddressTaken) {
  ModuleSummary S = summarize("func h = &cb;\n"
                              "int cb(int x) { return x; }\n"
                              "int f() { return h(1); }\n");
  bool Found = false;
  for (const ProcSummary &P : S.Procs)
    for (const std::string &A : P.AddressTakenProcs)
      Found |= A == "cb";
  EXPECT_TRUE(Found);
}

TEST(SummaryTest, RegisterNeedEstimatePassedThrough) {
  ModuleSummary S =
      summarize("int f() { return 1; }\n", {{"f", TrialCodeGenInfo{5, 0x00180000}}});
  const ProcSummary *F = findProc(S, "f");
  ASSERT_TRUE(F);
  EXPECT_EQ(F->CalleeRegsNeeded, 5u);
  EXPECT_EQ(F->CallerRegsUsed, 0x00180000u);
}

TEST(SummaryTest, RoundTripPreservesEverything) {
  ModuleSummary S = summarize(
      "static int s;\nint g;\nint arr[4];\n"
      "int cb(int x) { return x + s; }\n"
      "func h = &cb;\n"
      "int f(int n) {\n"
      "  for (int i = 0; i < n; i = i + 1) { g = g + cb(i); }\n"
      "  return h(g) + arr[1];\n"
      "}\n",
      {{"f", TrialCodeGenInfo{3, 0}}, {"cb", TrialCodeGenInfo{1, 0}}});
  std::string Text = writeSummary(S);
  ModuleSummary Parsed;
  std::string Error;
  ASSERT_TRUE(readSummary(Text, Parsed, Error)) << Error;
  EXPECT_EQ(writeSummary(Parsed), Text); // Canonical round-trip.
  EXPECT_EQ(Parsed.Module, S.Module);
  EXPECT_EQ(Parsed.Procs.size(), S.Procs.size());
  EXPECT_EQ(Parsed.Globals.size(), S.Globals.size());
}

TEST(SummaryTest, ReadRejectsMalformedInput) {
  const std::string Header = "summary-format " +
                             std::to_string(SummaryFormatVersion) +
                             " config=-\n";
  ModuleSummary Out;
  std::string Error;
  EXPECT_FALSE(readSummary("nonsense record\n", Out, Error));
  EXPECT_FALSE(Error.empty());
  Error.clear();
  EXPECT_FALSE(readSummary(Header + "ref g freq=1 stores=0 loads=1\n", Out,
                           Error));
  EXPECT_NE(Error.find("line 2: 'ref' outside proc"), std::string::npos)
      << Error;

  // A valid summary, then one corrupted value or field at a time: the
  // reader rejects each, naming the line and the field.
  const std::string Valid =
      Header +
      "module m\n"
      "global g static=0 scalar=1 aliased=0 escape=0 init=1\n"
      "proc m:f regs=2 indirect=0 indfreq=0 callerused=00180000"
      " indresolved=0 params=1 gpg=1\n"
      "ref g freq=10 stores=1 loads=1\n"
      "call m:h freq=1 args=0\n"
      "gpu g:g 1 p:0 0 ord=0\n"
      "gpgcall 1 m:h\n"
      "gpgsite 2 p:0^1 ?^0\n"
      "end\n";
  ASSERT_TRUE(readSummary(Valid, Out, Error)) << Error;
  EXPECT_EQ(writeSummary(Out), Valid);
  struct Case {
    std::string From, To, Expect;
  };
  const Case Cases[] = {
      {"freq=10", "freq=zz", "line 5: malformed freq=zz"},
      {"escape=0", "escape=banana", "line 3: malformed escape=banana"},
      {"escape=0", "escape=7", "line 3: malformed escape=7"},
      {"static=0", "static=2", "line 3: malformed static=2"},
      {"params=1", "params=1x", "line 4: malformed params=1x"},
      {"callerused=00180000", "callerused=xyz",
       "line 4: malformed callerused=xyz"},
      {"gpu g:g 1", "gpu g:g q", "line 7: malformed dlev 'q'"},
      {"regs=2", "regs=2 bogus=1", "line 4: unknown field 'bogus=1'"},
      {"freq=10", "freq=10 freq=11", "line 5: duplicate freq= field"},
      {" loads=1", "", "line 5: missing loads= field"},
      {"gpgcall 1 m:h", "gpgcall x m:h", "line 8: malformed ord 'x'"},
      {"end\n", "", "line 4: proc record 'm:f' has no end"},
  };
  for (const Case &C : Cases) {
    std::string Text = Valid;
    Text.replace(Text.find(C.From), C.From.size(), C.To);
    Error.clear();
    EXPECT_FALSE(readSummary(Text, Out, Error)) << Text;
    EXPECT_NE(Error.find(C.Expect), std::string::npos)
        << C.To << " gave: " << Error;
  }
}

TEST(SummaryTest, UnreachableCodeDoesNotCount) {
  ModuleSummary S = summarize("int g;\n"
                              "int f() { return 1; g = 2; }\n");
  const ProcSummary *F = findProc(S, "f");
  ASSERT_TRUE(F);
  // The store to g is unreachable (and level-2 removes it): no ref.
  EXPECT_TRUE(F->GlobalRefs.empty());
}

} // namespace
