//===- mcc.cpp - A command-line MiniC compiler and runner -----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// mcc: the whole system as a usable tool.
///
///   mcc [options] file1.mc file2.mc ...          # fused compile + run
///
/// Separate compilation (the paper's workflow, each phase a real file
/// operation; modules may be compiled in any order once the database
/// exists):
///
///   mcc --phase1 foo.mc > foo.sum
///   mcc --analyze [--partial] a.sum b.sum ... > prog.db
///   mcc --phase2 --db prog.db foo.mc > foo.o
///   mcc --link a.o b.o ...                       # links and runs
///   mcc --emit-runtime > runtime.mc              # the __prints module
///   mcc --db-diff old.db new.db                  # procs needing recompile
///
/// Cross-module lint (DESIGN.md §15 — the mod/ref verdicts as typed
/// diagnostics; exits 1 when any finding is reported, 0 when clean):
///
///   mcc --lint file1.mc file2.mc ...             # one line per finding:
///                                                # dead-proc, dead-global,
///                                                # write-only-global,
///                                                # uninit-read-global,
///                                                # arity-mismatch,
///                                                # empty-indirect-targets
///   mcc --lint --lint-json file1.mc ...          # same findings as JSON
///                                                # objects (machine use)
///
/// One request path: each pipeline mode is one BuildRequest (--phase1 a
/// Summary, --analyze an Analyze, --phase2 an Object, --lint a Lint
/// request, the default a Full build), sent either to the in-process
/// Pipeline or, under --client/--connect, to the daemon. Everything mcc
/// prints comes from the one BuildResponse, so every flag means the same
/// through both doors. The one difference is where a Full build's
/// executable comes from: the response in process, a local link of the
/// returned objects remotely (executables never cross the wire).
/// --link and --wall run no request the daemon could answer and exit 2
/// under --client.
///
/// Build service (the long-lived analyzer daemon; DESIGN.md §12-13):
///
///   mcc --serve /tmp/ipra.sock                   # daemon: retained
///                                                # delta state + shared
///                                                # artifact cache
///   mcc --serve --listen host:port               # same daemon over TCP
///                                                # (remote fan-in)
///   mcc --client /tmp/ipra.sock --program p a.mc b.mc   # remote build,
///                                                # local link + run
///   mcc --connect host:port --program p a.mc b.mc  # over TCP
///   mcc --client /tmp/ipra.sock --phase1 a.mc    # any phase mode, and
///                                                # --lint, on the daemon
///   mcc --client /tmp/ipra.sock --remote-stats   # service stats JSON
///   mcc --client /tmp/ipra.sock --remote-ping    # liveness probe
///   mcc --client /tmp/ipra.sock --remote-shutdown  # drain and exit
///
///   --program <id>               program identity on the daemon: requests
///                                with the same id share one retained
///                                delta-analysis session (default: the
///                                first source file's basename)
///   --queue-depth <N>            --serve admission bound; beyond it
///                                requests bounce with "busy" (default 256)
///   --cache-mem-budget <MiB>     bound the in-memory artifact cache;
///                                LRU entries are evicted past it
///   --cache-disk-budget <MiB>    bound the on-disk cache (oldest files
///                                swept first)
///   --cache-disk-ttl <sec>       expire on-disk cache entries by age
///   --max-sessions <N>           retain at most N (program, config)
///                                delta sessions; LRU-evicted past that
///   --session-idle <sec>         evict sessions idle longer than this
///   --session-dir <dir>          persist retained sessions here on
///                                shutdown/eviction and reload them
///                                lazily after a restart (warm restart:
///                                the delta path survives the daemon)
///   --max-conns <N>              --serve concurrent-connection cap;
///                                over it, connects get "busy" (default 64)
///   --io-timeout <sec>           per-connection socket read/write
///                                deadline (default 300)
///
///   --config <base|A|B|C|D|E|F>  analyzer configuration (default: C)
///   --stats                      print the pipeline, analyzer and
///                                delta statistics records (key=value,
///                                timings under "-ms" keys), whether the
///                                build was served from the cache, and
///                                the simulator counters after the run
///   --threads <N> | -j <N>       worker threads for the module-parallel
///                                pipeline stages (default: IPRA_THREADS
///                                or the hardware thread count)
///   --cache-dir <dir>            persistent artifact cache: summaries,
///                                databases, and objects are reused
///                                across invocations when their source,
///                                configuration, and database slice are
///                                unchanged (--stats shows hit counts)
///   --delta-analyze              route analyzer cache misses through
///                                the delta analyzer: re-analyze only
///                                the SCC damage region of the summary
///                                edit (--stats shows analyzer-mode
///                                full/delta/cached and the delta
///                                line's damage counters)
///   --dump-summary               print the per-module summary files
///   --dump-db                    print the program database
///   --disasm                     disassemble the linked executable
///   --fuel <cycles>              simulation budget (default 500M)
///   --split-webs                 §7.6.1 sparse-web splitting
///   --remerge-webs               §7.6.1 web re-merging (shared entries)
///   --caller-save-prop           §7.6.2 caller-saves pre-allocation
///   --relax-web-avail            §7.6.2 per-node web register blocking
///   --improved-free              §7.6.2 wider FREE sets
///   --wall                       [Wall 86] link-time allocation instead
///                                of the two-pass analyzer (§7.1)
///   --points-to=MODE             points-to analysis mode: "gpg"
///                                (default; Andersen plus composable
///                                flow/context-sensitive GPG summaries),
///                                "andersen" (per-module Andersen only),
///                                or "off" (conservative paper
///                                behaviour; summaries carry no facts)
///   --modref=on|off              whole-program mod/ref & constancy
///                                analysis (default on): read-only
///                                promoted globals skip the exit-sync
///                                writeback, dead globals skip promotion;
///                                "off" reproduces the paper's behaviour.
///                                --lint reports findings either way
///   --verify-ipra                after compiling, statically check the
///                                IPRA invariants over the objects and
///                                database (web interior silence, entry
///                                load/store exactness, wrap brackets,
///                                callee-saves discipline); violations
///                                fail the run
///
/// Configurations B and F collect their profile by first running the
/// program compiled at the baseline, exactly like running gprof before
/// the profile-guided build (§6.1).
///
//===----------------------------------------------------------------------===//

#include "analysis/IPRAVerify.h"
#include "driver/Driver.h"
#include "driver/Pipeline.h"
#include "link/ObjectIO.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Transport.h"
#include "support/FileIO.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace ipra;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mcc [--config base|A|B|C|D|E|F] [--stats] [--dump-summary]\n"
      "           [--dump-db] [--disasm] [--fuel N] [--threads N]\n"
      "           [--cache-dir DIR] [--delta-analyze]\n"
      "           [--points-to=off|andersen|gpg] [--modref=on|off]\n"
      "           [--verify-ipra]\n"
      "           file.mc...\n"
      "       mcc --lint [--lint-json] file.mc...  (cross-module lint)\n"
      "       mcc --phase1 file.mc            (summary to stdout)\n"
      "       mcc --analyze file.sum...       (database to stdout)\n"
      "       mcc --phase2 --db prog.db file.mc  (object to stdout)\n"
      "       mcc --link file.o...            (link and run)\n"
      "       mcc --emit-runtime              (runtime module source)\n"
      "       mcc --db-diff old.db new.db     (procedures to recompile)\n"
      "       mcc --serve SOCKET|--serve --listen HOST:PORT   (daemon)\n"
      "         [--queue-depth N] [--max-conns N] [--io-timeout SEC]\n"
      "         [--cache-mem-budget MIB] [--cache-disk-budget MIB]\n"
      "         [--cache-disk-ttl SEC] [--max-sessions N]\n"
      "         [--session-idle SEC] [--session-dir DIR]\n"
      "       mcc --client SOCKET|--connect HOST:PORT [--program ID]\n"
      "           [--phase1|--analyze|--phase2 --db prog.db|--lint] "
      "file...\n"
      "       mcc --client SOCKET --remote-stats|--remote-ping|"
      "--remote-shutdown\n");
  return 2;
}

/// Strict numeric flag parsing: the whole operand must be a positive
/// decimal integer. Zero, negatives, a sign, whitespace, trailing
/// garbage, overflow, and the empty string all die with a diagnostic
/// naming the flag (exit 2, matching usage()) instead of silently
/// becoming 0 the way atoi would.
long long parsePositiveIntOrDie(const std::string &Flag,
                                const char *Text) {
  long long V = 0;
  if (!parseInt(Text, V) || V <= 0) {
    std::fprintf(stderr,
                 "mcc: %s expects a positive integer, got '%s'\n",
                 Flag.c_str(), Text);
    std::exit(2);
  }
  return V;
}

std::string readFileOrDie(const std::string &Path) {
  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "mcc: cannot open %s\n", Path.c_str());
    std::exit(2);
  }
  return Text;
}

/// Runs \p Exe and writes its output to stdout; false, after saying why,
/// when the program did not halt.
bool runProgram(const Executable &Exe, long long Fuel, RunResult &Run) {
  Run = runExecutable(Exe, Fuel);
  std::fputs(Run.Output.c_str(), stdout);
  if (Run.Halted)
    return true;
  std::fprintf(stderr, "mcc: program did not halt: %s%s\n", Run.Trap.c_str(),
               Run.OutOfFuel ? "out of fuel" : "");
  return false;
}

std::string baseName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
}

} // namespace

int main(int argc, char **argv) {
  std::string ConfigName = "C";
  std::string Mode = "run";
  std::string DBPath;
  bool Stats = false, DumpSummary = false, DumpDB = false, Disasm = false;
  bool SplitWebs = false, RemergeWebs = false, CallerSaveProp = false,
       RelaxWebAvail = false, ImprovedFree = false, Partial = false;
  bool WallLink = false;
  PointsToMode PointsTo = PointsToMode::GPG;
  bool ModRef = true, LintJson = false;
  bool VerifyIPRA = false, DeltaAnalyze = false;
  long long Fuel = 500'000'000;
  int NumThreads = 0;
  std::string CacheDir;
  std::string ServeSocket, ClientSocket, ProgramId, RemoteCmd;
  std::string SessionDir;
  long long QueueDepth = 256;
  long long CacheMemBudgetMiB = 0, CacheDiskBudgetMiB = 0;
  long long CacheDiskTTL = 0, MaxSessions = 0, SessionIdle = 0;
  long long MaxConns = 0, IoTimeout = 0;
  std::vector<SourceFile> Sources;
  std::vector<std::string> InputPaths;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--phase1" || Arg == "--analyze" || Arg == "--phase2" ||
        Arg == "--link" || Arg == "--emit-runtime" ||
        Arg == "--db-diff" || Arg == "--lint") {
      Mode = Arg.substr(2);
    } else if (Arg == "--lint-json") {
      LintJson = true;
    } else if (Arg == "--db" && I + 1 < argc) {
      DBPath = argv[++I];
    } else if (Arg == "--config" && I + 1 < argc) {
      ConfigName = argv[++I];
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--dump-summary") {
      DumpSummary = true;
    } else if (Arg == "--dump-db") {
      DumpDB = true;
    } else if (Arg == "--disasm") {
      Disasm = true;
    } else if (Arg == "--fuel" && I + 1 < argc) {
      Fuel = parsePositiveIntOrDie(Arg, argv[++I]);
    } else if ((Arg == "--threads" || Arg == "-j") && I + 1 < argc) {
      NumThreads =
          static_cast<int>(parsePositiveIntOrDie(Arg, argv[++I]));
    } else if (Arg == "--cache-dir" && I + 1 < argc) {
      CacheDir = argv[++I];
    } else if (Arg == "--serve" && I + 1 < argc &&
               std::strcmp(argv[I + 1], "--listen") != 0) {
      Mode = "serve";
      ServeSocket = argv[++I];
    } else if (Arg == "--serve") {
      Mode = "serve"; // `--serve --listen host:port`: endpoint follows.
    } else if (Arg == "--listen" && I + 1 < argc) {
      Mode = "serve";
      ServeSocket = argv[++I];
    } else if ((Arg == "--client" || Arg == "--connect") && I + 1 < argc) {
      ClientSocket = argv[++I];
    } else if (Arg == "--program" && I + 1 < argc) {
      ProgramId = argv[++I];
    } else if (Arg == "--queue-depth" && I + 1 < argc) {
      QueueDepth = parsePositiveIntOrDie(Arg, argv[++I]);
    } else if (Arg == "--cache-mem-budget" && I + 1 < argc) {
      CacheMemBudgetMiB = parsePositiveIntOrDie(Arg, argv[++I]);
    } else if (Arg == "--cache-disk-budget" && I + 1 < argc) {
      CacheDiskBudgetMiB = parsePositiveIntOrDie(Arg, argv[++I]);
    } else if (Arg == "--cache-disk-ttl" && I + 1 < argc) {
      CacheDiskTTL = parsePositiveIntOrDie(Arg, argv[++I]);
    } else if (Arg == "--max-sessions" && I + 1 < argc) {
      MaxSessions = parsePositiveIntOrDie(Arg, argv[++I]);
    } else if (Arg == "--session-idle" && I + 1 < argc) {
      SessionIdle = parsePositiveIntOrDie(Arg, argv[++I]);
    } else if (Arg == "--session-dir" && I + 1 < argc) {
      SessionDir = argv[++I];
    } else if (Arg == "--max-conns" && I + 1 < argc) {
      MaxConns = parsePositiveIntOrDie(Arg, argv[++I]);
    } else if (Arg == "--io-timeout" && I + 1 < argc) {
      IoTimeout = parsePositiveIntOrDie(Arg, argv[++I]);
    } else if (Arg == "--remote-stats") {
      RemoteCmd = "stats";
    } else if (Arg == "--remote-ping") {
      RemoteCmd = "ping";
    } else if (Arg == "--remote-shutdown") {
      RemoteCmd = "shutdown";
    } else if (Arg == "--delta-analyze") {
      DeltaAnalyze = true;
    } else if (Arg == "--split-webs") {
      SplitWebs = true;
    } else if (Arg == "--remerge-webs") {
      RemergeWebs = true;
    } else if (Arg == "--caller-save-prop") {
      CallerSaveProp = true;
    } else if (Arg == "--relax-web-avail") {
      RelaxWebAvail = true;
    } else if (Arg == "--improved-free") {
      ImprovedFree = true;
    } else if (Arg == "--partial") {
      Partial = true;
    } else if (Arg == "--wall") {
      WallLink = true;
    } else if (Arg.rfind("--points-to=", 0) == 0) {
      if (!enumFromName(Arg.substr(12), PointsTo)) {
        std::fprintf(stderr,
                     "mcc: unknown points-to mode '%s' "
                     "(expected off, andersen, or gpg)\n",
                     Arg.substr(12).c_str());
        return usage();
      }
    } else if (Arg.rfind("--modref=", 0) == 0) {
      std::string Val = Arg.substr(9);
      if (Val == "on")
        ModRef = true;
      else if (Val == "off")
        ModRef = false;
      else {
        std::fprintf(stderr,
                     "mcc: unknown modref mode '%s' (expected on or off)\n",
                     Val.c_str());
        return usage();
      }
    } else if (Arg == "--verify-ipra") {
      VerifyIPRA = true;
    } else if (Arg.size() > 1 && Arg[0] == '-') {
      return usage();
    } else {
      InputPaths.push_back(Arg);
      Sources.push_back(SourceFile{baseName(Arg), readFileOrDie(Arg)});
    }
  }
  if (Mode == "emit-runtime") {
    std::fputs(runtimeModuleSource(), stdout);
    return 0;
  }

  // ---- Build service: daemon mode. ----------------------------------
  if (Mode == "serve") {
    if (ServeSocket.empty()) {
      std::fprintf(stderr,
                   "mcc: --serve needs a socket path or --listen "
                   "host:port\n");
      return 2;
    }
    BuildServiceConfig SC;
    SC.Workers = NumThreads > 0 ? static_cast<unsigned>(NumThreads) : 0;
    SC.MaxQueueDepth = static_cast<size_t>(QueueDepth);
    SC.CacheDir = CacheDir;
    SC.CacheMemBudgetBytes = static_cast<size_t>(CacheMemBudgetMiB) << 20;
    SC.CacheDiskBudgetBytes = static_cast<size_t>(CacheDiskBudgetMiB)
                              << 20;
    SC.CacheDiskTTLSeconds = static_cast<unsigned>(CacheDiskTTL);
    SC.MaxSessions = static_cast<size_t>(MaxSessions);
    SC.SessionIdleSeconds = static_cast<unsigned>(SessionIdle);
    SC.SessionDir = SessionDir;
    if (MaxConns > 0)
      SC.MaxConnections = static_cast<size_t>(MaxConns);
    if (IoTimeout > 0)
      SC.IoTimeoutSeconds = static_cast<unsigned>(IoTimeout);
    Endpoint E;
    std::string Error;
    if (!parseEndpoint(ServeSocket, E, Error)) {
      std::fprintf(stderr, "mcc: --serve: %s\n", Error.c_str());
      return 2;
    }
    Daemon D(E, SC);
    if (!D.start(Error)) {
      std::fprintf(stderr, "mcc: --serve: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "mcc: serving on %s\n",
                 D.endpoint().str().c_str());
    D.wait();
    return 0;
  }

  // ---- Build service: client control requests. ----------------------
  if (!ClientSocket.empty() && !RemoteCmd.empty()) {
    ServiceClient C;
    Status S = C.connect(ClientSocket);
    if (!S.ok()) {
      std::fprintf(stderr, "mcc: --client: %s\n", S.text().c_str());
      return 1;
    }
    if (RemoteCmd == "stats") {
      auto R = C.stats();
      if (!R.ok()) {
        std::fprintf(stderr, "mcc: --remote-stats: %s\n",
                     R.text().c_str());
        return 1;
      }
      std::printf("%s\n", R.Value.dump().c_str());
      return 0;
    }
    Status R = RemoteCmd == "ping" ? C.ping() : C.shutdownServer();
    if (!R.ok()) {
      std::fprintf(stderr, "mcc: --remote-%s: %s\n", RemoteCmd.c_str(),
                   R.text().c_str());
      return 1;
    }
    std::fprintf(stderr, "mcc: --remote-%s: ok\n", RemoteCmd.c_str());
    return 0;
  }

  if (Sources.empty())
    return usage();

  PipelineConfig Config;
  if (ConfigName == "base")
    Config = PipelineConfig::baseline();
  else if (ConfigName == "A")
    Config = PipelineConfig::configA();
  else if (ConfigName == "B")
    Config = PipelineConfig::configB();
  else if (ConfigName == "C")
    Config = PipelineConfig::configC();
  else if (ConfigName == "D")
    Config = PipelineConfig::configD();
  else if (ConfigName == "E")
    Config = PipelineConfig::configE();
  else if (ConfigName == "F")
    Config = PipelineConfig::configF();
  else
    return usage();
  Config.SplitSparseWebs = SplitWebs;
  Config.RemergeWebs = RemergeWebs;
  Config.CallerSavePropagation = CallerSaveProp;
  Config.RelaxWebAvail = RelaxWebAvail;
  Config.ImprovedFreeSets = ImprovedFree;
  Config.AssumeClosedWorld = !Partial;
  Config.PointsTo = PointsTo;
  Config.ModRef = ModRef;
  Config.NumThreads = NumThreads;
  Config.CacheDir = CacheDir;
  Config.CacheMemBudgetBytes = static_cast<size_t>(CacheMemBudgetMiB)
                               << 20;
  Config.CacheDiskBudgetBytes = static_cast<size_t>(CacheDiskBudgetMiB)
                                << 20;
  Config.CacheDiskTTLSeconds = static_cast<unsigned>(CacheDiskTTL);
  Config.DeltaAnalysis = DeltaAnalyze;

  // ---- Subcommands that send no request. ---------------------------
  if (Mode == "db-diff") {
    // §7.1 smart recompilation: which procedures' directives changed.
    if (Sources.size() != 2)
      return usage();
    ProgramDatabase Old, New;
    std::string Error;
    if (!ProgramDatabase::deserialize(Sources[0].Text, Old, Error) ||
        !ProgramDatabase::deserialize(Sources[1].Text, New, Error)) {
      std::fprintf(stderr, "mcc: %s\n", Error.c_str());
      return 1;
    }
    for (const std::string &Name : ProgramDatabase::diff(Old, New))
      std::printf("%s\n", Name.c_str());
    return 0;
  }
  if (!ClientSocket.empty() && (Mode == "link" || WallLink)) {
    std::fprintf(stderr, "mcc: --client cannot run %s: %s\n",
                 Mode == "link" ? "--link" : "--wall",
                 Mode == "link" ? "executables never cross the wire"
                                : "no build request runs it");
    return 2;
  }
  if (Mode == "link") {
    std::vector<std::string> Objects;
    for (const SourceFile &S : Sources)
      Objects.push_back(S.Text);
    Result<BuildResponse> Linked =
        Pipeline(Config).execute(BuildRequest::link(std::move(Objects)));
    if (!Linked.ok()) {
      std::fprintf(stderr, "%s\n", Linked.text().c_str());
      return 1;
    }
    RunResult Run;
    if (!runProgram(Linked->Exe, Fuel, Run))
      return 1;
    if (Stats)
      std::fprintf(stderr, "cycles: %lld\nsingleton refs: %lld\n",
                   Run.Stats.Cycles, Run.Stats.SingletonRefs);
    return Run.ExitCode;
  }
  // [Wall 86] route: baseline modules, link-time allocation (§7.1).
  if (WallLink && Mode == "run") {
    auto Wall = compileWallStyle(Sources);
    if (!Wall.Success) {
      std::fprintf(stderr, "%s\n", Wall.ErrorText.c_str());
      return 1;
    }
    if (Stats) {
      std::fprintf(stderr, "link-time promoted: %zu globals\n",
                   Wall.LinkStats.Promoted.size());
      for (const auto &[G, Reg] : Wall.LinkStats.Promoted)
        std::fprintf(stderr, "  %s -> r%u\n", G.c_str(), Reg);
    }
    RunResult Run;
    if (!runProgram(Wall.Exe, Fuel, Run))
      return 1;
    if (Stats)
      std::fprintf(stderr, "cycles:         %lld\nsingleton refs: %lld\n",
                   Run.Stats.Cycles, Run.Stats.SingletonRefs);
    return Run.ExitCode;
  }

  // ---- One request per mode. ----------------------------------------
  if ((Mode == "phase1" || Mode == "phase2") && Sources.size() != 1)
    return usage();
  BuildRequest Req;
  if (Mode == "phase1") {
    Req = BuildRequest::summary(Config, Sources);
  } else if (Mode == "analyze") {
    std::vector<std::string> Summaries;
    for (const SourceFile &S : Sources)
      Summaries.push_back(S.Text);
    Req = BuildRequest::analyze(Config, std::move(Summaries));
  } else if (Mode == "phase2") {
    Req = BuildRequest::object(Config, Sources,
                               DBPath.empty() ? "" : readFileOrDie(DBPath));
  } else if (Mode == "lint") {
    Req = BuildRequest::lint(Config, Sources);
  } else {
    Req = BuildRequest::full(Config, Sources);
  }
  Req.Program = ProgramId.empty() ? Sources[0].Name : ProgramId;

  // The one door every request goes through: the in-process pipeline,
  // or the daemon under --client/--connect. Executables never cross the
  // wire, so a remote Full build's executable is a local link of the
  // objects it returns; everything else printed below comes from the
  // response alike.
  ServiceClient Client;
  if (!ClientSocket.empty()) {
    if (Status S = Client.connect(ClientSocket); !S.ok()) {
      std::fprintf(stderr, "mcc: --client: %s\n", S.text().c_str());
      return 1;
    }
  }
  auto Send = [&](const BuildRequest &R) {
    if (ClientSocket.empty())
      return Pipeline(R.Config).execute(R);
    Result<BuildResponse> Resp = Client.request(R);
    if (Resp.ok() && R.Phase == BuildPhase::Full) {
      Result<BuildResponse> Linked =
          Pipeline(R.Config).execute(BuildRequest::link(Resp->Objects));
      if (!Linked.ok())
        return Linked;
      Resp->Exe = std::move(Linked->Exe);
    }
    return Resp;
  };
  auto Failed = [&](const Status &S) {
    if (ClientSocket.empty())
      std::fprintf(stderr, "%s\n", S.text().c_str());
    else
      std::fprintf(stderr, "mcc: --client%s%s%s: %s\n",
                   S.Code.empty() ? "" : " [", S.Code.c_str(),
                   S.Code.empty() ? "" : "]", S.text().c_str());
    return 1;
  };

  // Profile-guided configurations bootstrap their profile from a
  // baseline build of the same sources, run locally, exactly like
  // running gprof before the profile-guided build (§6.1).
  if (Req.Phase == BuildPhase::Full && Config.UseProfile) {
    Result<BuildResponse> Bootstrap = Send(BuildRequest::full(
        PipelineConfig::baseline(), Sources, Req.Program));
    if (!Bootstrap.ok())
      return Failed(Bootstrap);
    Req.Profile = runExecutable(Bootstrap->Exe, Fuel).Profile;
  }

  Result<BuildResponse> R = Send(Req);
  if (!R.ok())
    return Failed(R);
  const BuildResponse &Resp = R.Value;
  switch (Req.Phase) {
  case BuildPhase::Summary:
    for (const std::string &Summary : Resp.Summaries)
      std::fputs(Summary.c_str(), stdout);
    return 0;
  case BuildPhase::Analyze:
    std::fputs(Resp.Database.c_str(), stdout);
    return 0;
  case BuildPhase::Object:
    for (const std::string &Object : Resp.Objects)
      std::fputs(Object.c_str(), stdout);
    return 0;
  case BuildPhase::Lint:
    // Exit 1 when any finding is reported, 0 when clean (DESIGN.md §15).
    for (const std::string &Line : LintJson ? Resp.LintsJson : Resp.Lints)
      std::printf("%s\n", Line.c_str());
    return Resp.Lints.empty() ? 0 : 1;
  case BuildPhase::Link:
  case BuildPhase::Full:
    break;
  }

  if (VerifyIPRA) {
    std::vector<ObjectFile> Objects;
    for (const std::string &Text : Resp.Objects) {
      ObjectFile Obj;
      std::string Error;
      if (!readObjectFile(Text, Obj, Error)) {
        std::fprintf(stderr, "mcc: --verify-ipra: bad object: %s\n",
                     Error.c_str());
        return 1;
      }
      Objects.push_back(std::move(Obj));
    }
    ProgramDatabase DB;
    std::string Error;
    if (!Resp.Database.empty() &&
        !ProgramDatabase::deserialize(Resp.Database, DB, Error)) {
      std::fprintf(stderr, "mcc: --verify-ipra: bad database: %s\n",
                   Error.c_str());
      return 1;
    }
    IPRAVerifyResult V = verifyIPRA(Objects, DB);
    std::fprintf(stderr,
                 "verify-ipra: %u functions, %u call sites, "
                 "%u promotions checked: %s\n",
                 V.FunctionsChecked, V.CallSitesChecked,
                 V.PromotionsChecked, V.ok() ? "ok" : "FAILED");
    if (!V.ok()) {
      std::fputs(V.text().c_str(), stderr);
      return 1;
    }
  }

  if (DumpSummary)
    for (const std::string &S : Resp.Summaries)
      std::printf("%s\n", S.c_str());
  if (DumpDB)
    std::printf("%s\n", Resp.Database.c_str());
  if (Disasm) {
    for (const ExeSymbol &Sym : Resp.Exe.Symbols) {
      std::printf("%s:\n", Sym.QualName.c_str());
      for (int I = Sym.Start; I < Sym.End; ++I)
        std::printf("  %5d: %s\n", I, Resp.Exe.Code[I].toString().c_str());
    }
  }

  RunResult Run;
  if (!runProgram(Resp.Exe, Fuel, Run))
    return 1;
  if (Stats) {
    std::fputs(Resp.Stats.toString(Resp.Analyzer, Resp.Delta).c_str(),
               stderr);
    std::fprintf(stderr,
                 "served from cache: %s\n"
                 "cycles:         %lld\n"
                 "instructions:   %lld\n"
                 "memory refs:    %lld\n"
                 "singleton refs: %lld\n"
                 "calls:          %lld\n",
                 Resp.FromCache ? "yes" : "no", Run.Stats.Cycles,
                 Run.Stats.Instructions, Run.Stats.MemRefs,
                 Run.Stats.SingletonRefs, Run.Stats.Calls);
  }
  return Run.ExitCode;
}
