//===- BuildRequest.cpp - The one request type of the pipeline ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "driver/BuildRequest.h"

using namespace ipra;

const char *ipra::buildPhaseName(BuildPhase Phase) {
  switch (Phase) {
  case BuildPhase::Summary:
    return "summary";
  case BuildPhase::Analyze:
    return "analyze";
  case BuildPhase::Object:
    return "object";
  case BuildPhase::Link:
    return "link";
  case BuildPhase::Full:
    return "full";
  case BuildPhase::Lint:
    return "lint";
  }
  return "full";
}

bool ipra::parseBuildPhase(const std::string &Name, BuildPhase &Out) {
  if (Name == "summary")
    Out = BuildPhase::Summary;
  else if (Name == "analyze")
    Out = BuildPhase::Analyze;
  else if (Name == "object")
    Out = BuildPhase::Object;
  else if (Name == "link")
    Out = BuildPhase::Link;
  else if (Name == "full")
    Out = BuildPhase::Full;
  else if (Name == "lint")
    Out = BuildPhase::Lint;
  else
    return false;
  return true;
}

BuildRequest BuildRequest::full(PipelineConfig Config,
                                std::vector<SourceFile> Modules,
                                std::string Program) {
  BuildRequest Req;
  Req.Program = std::move(Program);
  Req.Phase = BuildPhase::Full;
  Req.Config = std::move(Config);
  Req.Modules = std::move(Modules);
  return Req;
}

BuildRequest BuildRequest::summary(PipelineConfig Config,
                                   std::vector<SourceFile> Modules,
                                   std::string Program) {
  BuildRequest Req;
  Req.Program = std::move(Program);
  Req.Phase = BuildPhase::Summary;
  Req.Config = std::move(Config);
  Req.Modules = std::move(Modules);
  return Req;
}

BuildRequest BuildRequest::analyze(PipelineConfig Config,
                                   std::vector<std::string> Summaries,
                                   std::string Program) {
  BuildRequest Req;
  Req.Program = std::move(Program);
  Req.Phase = BuildPhase::Analyze;
  Req.Config = std::move(Config);
  Req.Summaries = std::move(Summaries);
  return Req;
}

BuildRequest BuildRequest::object(PipelineConfig Config,
                                  std::vector<SourceFile> Modules,
                                  std::string Database,
                                  std::string Program) {
  BuildRequest Req;
  Req.Program = std::move(Program);
  Req.Phase = BuildPhase::Object;
  Req.Config = std::move(Config);
  Req.Modules = std::move(Modules);
  Req.Database = std::move(Database);
  return Req;
}

BuildRequest BuildRequest::link(std::vector<std::string> Objects,
                                std::string Program) {
  BuildRequest Req;
  Req.Program = std::move(Program);
  Req.Phase = BuildPhase::Link;
  Req.Objects = std::move(Objects);
  return Req;
}

BuildRequest BuildRequest::lint(PipelineConfig Config,
                                std::vector<SourceFile> Modules,
                                std::string Program) {
  BuildRequest Req;
  Req.Program = std::move(Program);
  Req.Phase = BuildPhase::Lint;
  Req.Config = std::move(Config);
  Req.Modules = std::move(Modules);
  return Req;
}
