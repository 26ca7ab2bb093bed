//===- Driver.cpp - Runtime module and link-time allocation ---------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
//
// The runtime module and the [Wall 86] link-time route; the two-pass
// phases themselves live in Pipeline.cpp.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include "driver/Pipeline.h"
#include "link/ObjectIO.h"

using namespace ipra;

const char *ipra::runtimeModuleSource() {
  return "// MiniC runtime.\n"
         "void __prints(char *s) {\n"
         "  int i = 0;\n"
         "  while (s[i] != 0) {\n"
         "    printc(s[i]);\n"
         "    i = i + 1;\n"
         "  }\n"
         "}\n";
}

WallCompileResult
ipra::compileWallStyle(const std::vector<SourceFile> &Sources,
                       const LinkAllocOptions &Options) {
  WallCompileResult Result;
  PipelineConfig Base = PipelineConfig::baseline();
  Base.LinkerReservedRegs = Options.ReserveBank;

  std::vector<SourceFile> AllSources = Sources;
  AllSources.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});

  // Baseline second phase over every module in one request (no
  // database: the standard linkage convention), round-tripped through
  // the textual object format like every other pipeline.
  auto P2 = Pipeline(Base).execute(BuildRequest::object(Base, AllSources, ""));
  if (!P2.ok()) {
    Result.ErrorText = P2.Diags.text();
    return Result;
  }
  std::vector<ObjectFile> Objects;
  for (const std::string &Text : P2->Objects) {
    ObjectFile Obj;
    std::string Error;
    if (!readObjectFile(Text, Obj, Error)) {
      Result.ErrorText = "bad object file: " + Error;
      return Result;
    }
    Objects.push_back(std::move(Obj));
  }

  WallLinkResult Linked = linkObjectsWallStyle(std::move(Objects), Options);
  Result.LinkStats = Linked.Stats;
  if (!Linked.Success) {
    Result.ErrorText = "link failed:";
    for (const std::string &E : Linked.Errors)
      Result.ErrorText += "\n  " + E;
    return Result;
  }
  Result.Exe = std::move(Linked.Exe);
  Result.Success = true;
  return Result;
}
