//===- paper_tables_test.cpp - EXPERIMENTS.md Tables 4 and 5 --------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// The paper's headline tables as EXPERIMENTS.md quotes them: Table 4
/// (% cycle improvement over level-2 optimization) and Table 5 (%
/// reduction in dynamic singleton memory references), recomputed from
/// the simulated cells in oracle_digests.txt, which OracleDigestTest
/// pins against fresh runs. Cells are formatted as bench_table4_performance
/// and bench_table5_memrefs print them (%.1f, so a tiny loss reads -0.0)
/// and compared row by row; a mismatch prints the fresh row. No program
/// is simulated here.
///
/// The tables' shape claims are asserted too: promotion never loses to
/// spill motion alone (C >= A) and procedure-level profiles leave spill
/// motion unchanged (B = A), in both tables for every program.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace ipra;
using namespace ipra::bench;

namespace {

const char *const Configs[] = {"A", "B", "C", "D", "E", "F"};

/// Each recorded cell's "key=value" fields, keyed by "<program> <config>".
std::map<std::string, std::map<std::string, long long>> recordedCells() {
  std::map<std::string, std::map<std::string, long long>> Cells;
  std::ifstream In(IPRA_ORACLE_DIGESTS);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream Fields(Line);
    std::string Program, Config, Field;
    if (Line.empty() || Line[0] == '#' || !(Fields >> Program >> Config))
      continue;
    auto &Cell = Cells[Program + " " + Config];
    while (Fields >> Field) {
      size_t Eq = Field.find('=');
      if (Eq != std::string::npos && Field.compare(0, Eq, "profile") != 0 &&
          Field.compare(0, Eq, "output") != 0)
        Cell[Field.substr(0, Eq)] = std::stoll(Field.substr(Eq + 1));
    }
  }
  return Cells;
}

/// The table rows under EXPERIMENTS.md's heading \p Heading, keyed by
/// program, in order of appearance.
std::vector<std::pair<std::string, std::string>>
quotedRows(const std::string &Heading) {
  std::vector<std::pair<std::string, std::string>> Rows;
  std::ifstream In(IPRA_EXPERIMENTS_MD);
  std::string Line;
  bool InSection = false;
  while (std::getline(In, Line)) {
    if (Line.rfind("## ", 0) == 0)
      InSection = Line.rfind(Heading, 0) == 0;
    if (!InSection || Line.rfind("| ", 0) != 0 ||
        Line.rfind("| Benchmark", 0) == 0)
      continue;
    size_t End = Line.find(" |", 2);
    Rows.emplace_back(Line.substr(2, End - 2), Line);
  }
  return Rows;
}

/// One program's six cells of \p Stat, as the table benches print them.
std::vector<std::string> freshCells(const std::string &Program,
                                    const std::string &Stat) {
  static const auto Cells = recordedCells();
  long long Base = Cells.at(Program + " base").at(Stat);
  std::vector<std::string> Out;
  for (const char *Config : Configs) {
    char Buf[32];
    std::snprintf(
        Buf, sizeof(Buf), "%.1f",
        improvementPct(Base, Cells.at(Program + " " + Config).at(Stat)));
    Out.push_back(Buf);
  }
  return Out;
}

std::string markdownRow(const std::string &Program,
                        const std::vector<std::string> &Cells) {
  std::string Row = "| " + Program + " |";
  for (const std::string &C : Cells)
    Row += " " + C + " |";
  return Row;
}

/// Compares the quoted table with fresh rows for \p Programs and checks
/// the C >= A and B = A claims on every row.
void checkTable(const std::string &Heading, const std::string &Stat,
                const std::vector<std::string> &Programs) {
  auto Quoted = quotedRows(Heading);
  ASSERT_EQ(Quoted.size(), Programs.size())
      << Heading << ": EXPERIMENTS.md quotes " << Quoted.size()
      << " rows for " << Programs.size() << " programs";
  for (size_t I = 0; I < Programs.size(); ++I) {
    const std::string &Program = Programs[I];
    std::vector<std::string> Cells = freshCells(Program, Stat);
    std::string Fresh = markdownRow(Program, Cells);
    EXPECT_EQ(Quoted[I].second, Fresh)
        << Heading << ", row " << I + 1 << "; fresh row:\n"
        << Fresh;
    EXPECT_GE(std::stod(Cells[2]), std::stod(Cells[0]))
        << Heading << ": " << Program << " has C < A";
    EXPECT_EQ(Cells[1], Cells[0]) << Heading << ": " << Program
                                  << " has B != A";
  }
}

std::vector<std::string> corpusPrograms(bool WithProtoc) {
  std::vector<std::string> Names;
  for (const ProgramInfo &P : programList())
    if (WithProtoc || P.Name != "protoc")
      Names.push_back(P.Name);
  return Names;
}

TEST(PaperTablesTest, Table4CyclesMatchExperiments) {
  checkTable("## Table 4", "cycles", corpusPrograms(/*WithProtoc=*/true));
}

// The paper's Table 5 has no Proto C row; neither does the bench's.
TEST(PaperTablesTest, Table5SingletonRefsMatchExperiments) {
  checkTable("## Table 5", "singletons", corpusPrograms(/*WithProtoc=*/false));
}

} // namespace
