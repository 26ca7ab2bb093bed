//===- BenchSupport.cpp - Shared benchmark harness helpers ----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "ir/IRGen.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace ipra;
using namespace ipra::bench;

#ifndef IPRA_PROGRAMS_DIR
#define IPRA_PROGRAMS_DIR "bench/programs"
#endif

const std::vector<ProgramInfo> &ipra::bench::programList() {
  static const std::vector<ProgramInfo> Programs = {
      {"dhry", "Popular CPU benchmark (Dhrystone-flavoured synthetic)"},
      {"fgrep", "Text pattern matching tool"},
      {"othello", "Game program"},
      {"war", "Game program (card game simulation)"},
      {"crtool", "Prototype code repositioning tool"},
      {"protoc", "A fast compiler, compiling generated programs"},
      {"paopt", "Optimizer, optimizing synthetic linear IR"},
      {"disp", "Function-pointer dispatch machine (points-to showcase)"},
      {"ptrchase", "Linked-list chase + dispatch combinator (GPG showcase)"},
      {"rotab", "Read-only tuning table + dead maintenance writer "
                "(mod/ref showcase)"},
  };
  return Programs;
}

std::vector<SourceFile> ipra::bench::loadProgram(const std::string &Name) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> Sources;
  fs::path Dir = fs::path(IPRA_PROGRAMS_DIR) / Name;
  std::vector<fs::path> Files;
  for (const auto &Entry : fs::directory_iterator(Dir))
    if (Entry.path().extension() == ".mc")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  for (const fs::path &File : Files) {
    std::ifstream In(File);
    std::ostringstream Text;
    Text << In.rdbuf();
    Sources.push_back(SourceFile{File.filename().string(), Text.str()});
  }
  if (Sources.empty()) {
    std::fprintf(stderr, "no sources found under %s\n", Dir.c_str());
    std::exit(1);
  }
  return Sources;
}

int ipra::bench::countLines(const std::vector<SourceFile> &Sources) {
  int Lines = 0;
  for (const SourceFile &Src : Sources) {
    std::istringstream In(Src.Text);
    std::string Line;
    while (std::getline(In, Line)) {
      // Count non-blank lines.
      if (Line.find_first_not_of(" \t\r") != std::string::npos)
        ++Lines;
    }
  }
  return Lines;
}

IRRunResult
ipra::bench::interpretProgram(const std::vector<SourceFile> &Sources) {
  std::vector<SourceFile> All = Sources;
  All.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  std::vector<std::unique_ptr<IRModule>> IRs;
  std::vector<const IRModule *> Ptrs;
  for (const SourceFile &Src : All) {
    DiagnosticEngine Diags;
    Lexer Lex(Src.Name, Src.Text, Diags);
    Parser P(Src.Name, Lex.lexAll(), Diags);
    auto AST = P.parseModule();
    Sema S(Diags);
    if (Diags.hasErrors() || !S.run(*AST)) {
      IRRunResult R;
      R.Error = "front end failed for " + Src.Name + ": " + Diags.renderAll();
      return R;
    }
    IRs.push_back(generateIR(*AST, Diags));
    Ptrs.push_back(IRs.back().get());
  }
  return interpretIR(Ptrs);
}

double ipra::bench::improvementPct(long long Base, long long Now) {
  if (Base == 0)
    return 0.0;
  return 100.0 * static_cast<double>(Base - Now) /
         static_cast<double>(Base);
}

std::vector<ConfigRun>
ipra::bench::runAllConfigs(const std::vector<SourceFile> &Sources) {
  std::vector<ConfigRun> Runs;

  auto RunOne = [&Sources](const std::string &Name,
                           const PipelineConfig &Config,
                           const ProfileData *Profile) {
    ConfigRun Out;
    Out.Config = Name;
    BuildResult B = Pipeline(Config).build(Sources, Profile);
    if (!B.ok()) {
      std::fprintf(stderr, "[%s] compile failed: %s\n", Name.c_str(),
                   B.text().c_str());
      return Out;
    }
    RunResult R = runExecutable(B.Exe);
    if (!R.Halted) {
      std::fprintf(stderr, "[%s] run failed: %s%s\n", Name.c_str(),
                   R.Trap.c_str(), R.OutOfFuel ? " (out of fuel)" : "");
      return Out;
    }
    Out.Ok = true;
    Out.Stats = R.Stats;
    Out.Output = R.Output;
    Out.Analyzer = B.Analyzer;
    return Out;
  };

  ConfigRun Base = RunOne("base", PipelineConfig::baseline(), nullptr);
  Runs.push_back(Base);
  if (!Base.Ok)
    return Runs;

  // Profile for columns B and F: re-run the baseline to collect it.
  ProfileData Profile =
      runExecutable(Pipeline(PipelineConfig::baseline()).build(Sources).Exe)
          .Profile;

  struct Named {
    const char *Name;
    PipelineConfig Config;
    bool NeedsProfile;
  };
  const Named Configs[] = {
      {"A", PipelineConfig::configA(), false},
      {"B", PipelineConfig::configB(), true},
      {"C", PipelineConfig::configC(), false},
      {"D", PipelineConfig::configD(), false},
      {"E", PipelineConfig::configE(), false},
      {"F", PipelineConfig::configF(), true},
  };
  for (const Named &N : Configs) {
    ConfigRun R =
        RunOne(N.Name, N.Config, N.NeedsProfile ? &Profile : nullptr);
    if (R.Ok && R.Output != Base.Output) {
      std::fprintf(stderr,
                   "FATAL: config %s changed program output!\n"
                   "base: %s\n%s:   %s\n",
                   N.Name, Base.Output.c_str(), N.Name,
                   R.Output.c_str());
      std::exit(1);
    }
    Runs.push_back(std::move(R));
  }
  return Runs;
}
