//===- BuildRequest.cpp - The one request type of the pipeline ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "driver/BuildRequest.h"

using namespace ipra;

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
