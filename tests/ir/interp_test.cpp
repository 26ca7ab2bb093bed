//===- interp_test.cpp - Reference IR interpreter tests -------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Interp.h"
#include "opt/Passes.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ipra;
using ipra::test::compileToIR;

namespace {

IRRunResult interpret(const std::string &Source, bool Optimize = false) {
  DiagnosticEngine Diags;
  auto M = compileToIR("t.mc", Source, Diags);
  EXPECT_TRUE(M) << Diags.renderAll();
  if (Optimize)
    optimizeModule(*M, OptOptions());
  auto R = interpretIR({M.get()});
  EXPECT_TRUE(R.Ok) << R.Error;
  return R;
}

TEST(InterpTest, ArithmeticAndControlFlow) {
  auto R = interpret("int fib(int n) { if (n < 2) return n;"
                     " return fib(n - 1) + fib(n - 2); }\n"
                     "int main() { print(fib(12)); return fib(7); }\n");
  EXPECT_EQ(R.Output, "144\n");
  EXPECT_EQ(R.ExitCode, 13);
}

TEST(InterpTest, GlobalsArraysPointers) {
  auto R = interpret(
      "int g = 5;\nint arr[] = {10, 20, 30};\n"
      "void bump(int *p, int d) { *p = *p + d; }\n"
      "int main() {\n"
      "  bump(&g, arr[2]);\n"
      "  arr[0] = g;\n"
      "  print(g);\n"
      "  print(arr[0] + arr[1]);\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(R.Output, "35\n55\n");
}

TEST(InterpTest, FunctionPointers) {
  auto R = interpret("int dbl(int x) { return 2 * x; }\n"
                     "func f = &dbl;\n"
                     "int main() { print(f(21)); return 0; }\n");
  EXPECT_EQ(R.Output, "42\n");
}

TEST(InterpTest, LocalArraysAndCharData) {
  auto R = interpret("char msg[] = \"ab\";\n"
                     "int main() {\n"
                     "  int a[4];\n"
                     "  for (int i = 0; i < 4; i = i + 1) a[i] = i * i;\n"
                     "  printc(msg[0]);\n"
                     "  printc(msg[1]);\n"
                     "  print(a[0] + a[1] + a[2] + a[3]);\n"
                     "  return 0;\n"
                     "}\n");
  EXPECT_EQ(R.Output, "ab14\n");
}

TEST(InterpTest, DivisionSemanticsMatchSimulator) {
  auto R = interpret("int main() {\n"
                     "  print(7 / 0);\n"
                     "  print((0 - 7) / 2);\n"
                     "  print((0 - 2147483647 - 1) / (0 - 1));\n"
                     "  return 0;\n"
                     "}\n");
  EXPECT_EQ(R.Output, "0\n-3\n-2147483648\n");
}

TEST(InterpTest, TrapOnBadPointer) {
  DiagnosticEngine Diags;
  auto M = compileToIR(
      "t.mc",
      "int g;\nint main() { int *p = &g; return *(p + 1000000); }\n",
      Diags);
  ASSERT_TRUE(M);
  auto R = interpretIR({M.get()});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos);
}

TEST(InterpTest, StepLimitEnforced) {
  DiagnosticEngine Diags;
  auto M = compileToIR("t.mc", "int main() { while (1) { } return 0; }\n",
                       Diags);
  ASSERT_TRUE(M);
  auto R = interpretIR({M.get()}, 1000);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(InterpTest, MultiModuleWithStatics) {
  DiagnosticEngine Diags;
  auto M1 = compileToIR("a.mc",
                        "static int s = 3;\n"
                        "int getA() { return s; }\n",
                        Diags);
  auto M2 = compileToIR("b.mc",
                        "static int s = 4;\n"
                        "int getB() { return s; }\n",
                        Diags);
  auto M3 = compileToIR("m.mc",
                        "int getA(); int getB();\n"
                        "int main() { print(getA() * 10 + getB());"
                        " return 0; }\n",
                        Diags);
  ASSERT_TRUE(M1 && M2 && M3);
  auto R = interpretIR({M1.get(), M2.get(), M3.get()});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "34\n");
}

/// Renames every use of symbol \p From in \p M to \p To, a name nothing
/// defines.
void renameSymbol(IRModule &M, const std::string &From,
                  const std::string &To) {
  for (auto &F : M.Functions)
    for (auto &B : F->Blocks)
      for (IRInstr &I : B->Instrs)
        if (I.Sym == From)
          I.Sym = To;
}

/// A program whose branch on \p Take reaches a call to a declared but
/// undefined function, and reads of globals the test renames away.
std::unique_ptr<IRModule> unresolvedProgram(int Take, const char *Body) {
  DiagnosticEngine Diags;
  auto M = compileToIR("t.mc",
                       "int g;\nint table[4];\nint missing(int x);\n"
                       "int main() {\n"
                       "  int take = " + std::to_string(Take) + ";\n"
                       "  print(1);\n"
                       "  if (take) {\n" + Body + "  }\n"
                       "  return 0;\n"
                       "}\n",
                       Diags);
  EXPECT_TRUE(M) << Diags.renderAll();
  renameSymbol(*M, "g", "ghost");
  renameSymbol(*M, "table", "nowhere");
  return M;
}

TEST(InterpTest, UnresolvedSymbolsFailOnlyWhenExecuted) {
  const std::pair<const char *, const char *> Cases[] = {
      {"    print(missing(3));\n", "call to undefined 'missing'"},
      {"    print(g);\n", "unresolved symbol 'ghost'"},
      {"    g = 5;\n", "unresolved symbol 'ghost'"},
      {"    int *p = &g; print(*p);\n", "unresolved symbol 'ghost'"},
      {"    print(table[1]);\n", "unresolved array 'nowhere'"},
      {"    table[1] = 2;\n", "unresolved array 'nowhere'"},
  };
  for (const auto &[Body, Message] : Cases) {
    auto NotTaken = unresolvedProgram(0, Body);
    auto R = interpretIR({NotTaken.get()});
    EXPECT_TRUE(R.Ok) << Body << R.Error;
    EXPECT_EQ(R.Output, "1\n") << Body;

    auto Taken = unresolvedProgram(1, Body);
    R = interpretIR({Taken.get()});
    EXPECT_FALSE(R.Ok) << Body;
    EXPECT_EQ(R.Error, Message) << Body;
    EXPECT_EQ(R.Output, "1\n") << Body; // Ran up to the branch.
  }
}

TEST(InterpTest, StaticsShadowExportedNamesInEitherModuleOrder) {
  // a.mc's static v and f shadow b.mc's exported ones inside a.mc only;
  // every other module sees b.mc's. A static function's address taken in
  // a.mc is a.mc's, and a direct call never resolves to a global.
  const char *A = "static int v = 1;\n"
                  "static int f() { return 10; }\n"
                  "int viaA() { func p = &f; return v + f() + p(); }\n";
  const char *B = "int v = 2;\n"
                  "int f() { return 20; }\n"
                  "int viaB() { func p = &f; return v + f() + p(); }\n";
  const char *Main = "int v;\nint f(); int viaA(); int viaB();\n"
                     "int main() { print(viaA()); print(viaB());"
                     " print(v + f()); return 0; }\n";
  DiagnosticEngine Diags;
  auto MA = compileToIR("a.mc", A, Diags);
  auto MB = compileToIR("b.mc", B, Diags);
  auto MM = compileToIR("m.mc", Main, Diags);
  ASSERT_TRUE(MA && MB && MM) << Diags.renderAll();
  std::vector<const IRModule *> Order = {MA.get(), MB.get(), MM.get()};
  std::sort(Order.begin(), Order.end());
  do {
    auto R = interpretIR(Order);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, "21\n42\n22\n");
  } while (std::next_permutation(Order.begin(), Order.end()));
}

TEST(InterpTest, OptimizedIRBehavesIdentically) {
  const char *Src =
      "int g;\nint acc(int x) { g = g + x; return g; }\n"
      "int main() {\n"
      "  int r = 0;\n"
      "  for (int i = 0; i < 25; i = i + 1) r = r + acc(i) * (i & 3);\n"
      "  print(r);\n"
      "  print(g);\n"
      "  return 0;\n"
      "}\n";
  auto Plain = interpret(Src, /*Optimize=*/false);
  auto Optimized = interpret(Src, /*Optimize=*/true);
  EXPECT_EQ(Plain.Output, Optimized.Output);
  EXPECT_EQ(Plain.ExitCode, Optimized.ExitCode);
  // Optimization must not increase the dynamic instruction count.
  EXPECT_LE(Optimized.Steps, Plain.Steps);
}

} // namespace
