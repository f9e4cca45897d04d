// lockdoc — the command-line front end to the whole pipeline, operating on
// archived trace files and .lockdb analysis snapshots (the paper's ex-post
// analysis workflow, Sec. 3.3: "recorded execution traces can be easily
// archived and analyzed in arbitrary ways").
//
//   lockdoc simulate --out run.trace [--ops N] [--seed S] [--clean]
//                    [--script FILE]
//   lockdoc import run.trace --out db.lockdb
//   lockdoc stats FILE
//   lockdoc derive FILE [--tac 0.9] [--type inode [--subclass ext4]]
//                       [--spec] [--support]
//   lockdoc check FILE [--rules rules.txt]
//   lockdoc violations FILE [--limit N] [--tac 0.9]
//   lockdoc lock-order FILE
//   lockdoc modes FILE [--all]
//   lockdoc diff OLD NEW [--all]
//   lockdoc analyze FILE [--passes check,violations,...] [--baseline OLD]
//                        [--out-dir DIR]
//   lockdoc export-csv FILE --dir DIR
//   lockdoc doctor FILE [--repair fixed.trace]
//
// Every analysis command takes FILE as either a raw trace or a .lockdb
// snapshot written by `lockdoc import`, auto-detected by magic bytes. A
// snapshot skips the import and extraction phases entirely — the
// import-once / analyze-many workflow — and produces byte-identical output
// to analyzing the original trace.
//
// The phase-3 analysis commands (derive, check, violations, lock-order,
// modes, report, diff) are thin shells around the registered AnalysisPasses
// (src/core/analysis_pass.h), all sharing one AnalysisContext. `analyze`
// runs any subset of those passes over a single context: the input is
// loaded once, rules are derived once, the shared indexes are built at most
// once, and each selected pass's output — byte-identical to its standalone
// command — is emitted in pass order (or to per-pass files via --out-dir).
//
// Flags are validated strictly: a flag a command does not accept is a usage
// error (exit 64), not a silent no-op.
//
// `doctor` checks an archived file's health (traces and snapshots): exit
// code 0 means clean, 1 damaged-but-salvageable (for traces, optionally
// rewriting the salvaged content as a fresh v2 file via --repair), 2
// unreadable, 64 usage error. All analysis commands accept --salvage to run
// on a damaged trace's surviving prefix.
//
// Traces must come from the built-in simulated kernel (the type registry is
// part of the contract between tracer and analyzer, as in the paper where
// the kernel's DWARF layout plays that role); snapshots record the
// registry's shape and refuse to load against a different one.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <memory>
#include <sstream>

#include "src/core/analysis_pass.h"
#include "src/core/filter_config.h"
#include "src/core/pipeline.h"
#include "src/core/snapshot.h"
#include "src/db/snapshot.h"
#include "src/report/render.h"
#include "src/serve/service.h"
#include "src/serve/socket.h"
#include "src/serve/spool.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"
#include "src/util/file_io.h"
#include "src/util/flags.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"
#include "src/vfs/mm_kernel.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/script.h"
#include "src/workload/workloads.h"

using namespace lockdoc;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lockdoc <command> [args]\n"
               "commands:\n"
               "  simulate --out FILE [--ops N] [--seed S] [--clean] [--script FILE]\n"
               "           [--workload vfs|mm]\n"
               "  import TRACE --out DB.lockdb\n"
               "  stats FILE\n"
               "  derive FILE [--tac T] [--type NAME [--subclass NAME]] [--spec] [--support]\n"
               "  check FILE [--rules RULES.txt]\n"
               "  violations FILE [--limit N] [--tac T] [--filter-config FILE]\n"
               "  lock-order FILE\n"
               "  modes FILE [--all]\n"
               "  report FILE [--full] [--filter-config FILE]\n"
               "  diff OLD NEW [--all]\n"
               "  analyze FILE [--passes P1,P2,...] [--baseline OLD] [--out-dir DIR]\n"
               "          [--filter-config FILE]\n"
               "  export-csv FILE --dir DIR\n"
               "  doctor FILE [--repair OUT]\n"
               "  serve SPOOL_DIR [--state DIR] [--once] [--poll-ms T]\n"
               "        [--max-resident N] [--max-resident-bytes B]\n"
               "        [--deadline-ms T] [--max-trace-bytes B] [--jobs N]\n"
               "        [--workers N] [--listen HOST:PORT]\n"
               "  query HOST:PORT REQUEST.req\n"
               "FILE is a trace or a .lockdb snapshot (auto-detected by magic);\n"
               "`import` converts the former into the latter so repeated analyses\n"
               "skip the import/extraction phases.\n"
               "`analyze` runs several analysis passes (%s)\n"
               "over one shared context: the input is loaded and rules are derived\n"
               "only once, and each pass's output is byte-identical to its\n"
               "standalone command.\n"
               "analysis commands accept --salvage to read damaged traces,\n"
               "--jobs N to set analysis threads (default: all hardware threads;\n"
               "results are byte-identical at any value), --timings to print\n"
               "per-phase wall time and throughput to stderr, and\n"
               "--timings-json PATH to write the same data as JSON.\n"
               "phase-3 analysis commands accept --format text|json|html to pick the\n"
               "report rendering (text is byte-identical to previous releases);\n"
               "--filter-config FILE blacklists functions/members from counterexample\n"
               "forensics, with suppressed counts reported, never silent.\n"
               "a flag a command does not accept is a usage error (exit 64)\n",
               PassRegistry::Default().JoinedNames().c_str());
  return 2;
}

double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

PipelineOptions MakeOptions(const FlagSet& flags) {
  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();
  options.derivator.accept_threshold = flags.GetDouble("tac", 0.9);
  options.jobs = flags.GetUint64("jobs", 0);
  return options;
}

struct LoadedTrace {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry;
  Trace trace;
};

// True when `registry` is the extended (mm) registry; used to append the mm
// workload's documented rules without touching the base rule text.
bool IsMmRegistry(const TypeRegistry& registry) {
  return registry.type_count() > VfsBaseTypeCount();
}

// Picks the registry matching a .lockdb file by peeking at the recorded
// type count. Every pre-existing archive loads against the base registry,
// keeping legacy analyses byte-identical.
std::unique_ptr<TypeRegistry> RegistryForSnapshotFile(const std::string& path, VfsIds* ids) {
  return TypeCountNeedsExtendedRegistry(PeekSnapshotTypeCount(path), VfsBaseTypeCount())
             ? BuildVfsMmRegistry(ids)
             : BuildVfsRegistry(ids);
}

bool LoadTraceFromPath(const std::string& path, const FlagSet& flags, LoadedTrace* out) {
  TraceReadOptions options;
  options.salvage = flags.GetBool("salvage", false);
  // Strict reads fan frame CRCs and event decoding out over --jobs lanes;
  // the resulting trace (and any error) is identical at any job count.
  std::unique_ptr<ThreadPool> pool;
  if (!options.salvage) {
    pool = std::make_unique<ThreadPool>(flags.GetUint64("jobs", 0));
    options.pool = pool.get();
  }
  TraceReadReport report;
  auto loaded = ReadTraceFromFile(path, options, &report);
  if (!loaded.ok()) {
    std::fprintf(stderr, "lockdoc: %s\n", loaded.status().message().c_str());
    if (!options.salvage) {
      std::fprintf(stderr, "lockdoc: (try `lockdoc doctor` or --salvage)\n");
    }
    return false;
  }
  if (!report.clean()) {
    std::fprintf(stderr, "lockdoc: warning: trace damaged, salvaged %llu events (%llu lost)\n",
                 static_cast<unsigned long long>(report.events_salvaged),
                 static_cast<unsigned long long>(report.events_dropped));
  }
  out->trace = std::move(loaded).value();
  out->registry = TraceNeedsExtendedRegistry(out->trace, VfsBaseTypeCount())
                      ? BuildVfsMmRegistry(&out->ids)
                      : BuildVfsRegistry(&out->ids);
  return true;
}

bool LoadTrace(const FlagSet& flags, LoadedTrace* out) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "lockdoc: missing trace file\n");
    return false;
  }
  return LoadTraceFromPath(flags.positional()[1], flags, out);
}

// Analysis-stage input: a self-contained snapshot, either built from a
// trace (import + extraction phases) or loaded from a .lockdb file
// ("snapshot load" phase). Either way the downstream analyses are
// byte-identical.
struct AnalysisInput {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry;
  AnalysisSnapshot snapshot;
  PipelineTimings timings;
  bool from_snapshot = false;
};

// Loads `path` (trace or .lockdb) and the registry matching it into `out`.
bool LoadSnapshotFromPath(const std::string& path, const FlagSet& flags, AnalysisInput* out) {
  if (IsSnapshotFile(path)) {
    out->registry = RegistryForSnapshotFile(path, &out->ids);
    auto t0 = std::chrono::steady_clock::now();
    auto loaded = LoadSnapshot(path, *out->registry);
    if (!loaded.ok()) {
      std::fprintf(stderr, "lockdoc: %s\n", loaded.status().message().c_str());
      std::fprintf(stderr, "lockdoc: (try `lockdoc doctor %s`)\n", path.c_str());
      return false;
    }
    out->snapshot = std::move(loaded).value();
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    out->timings.Add("snapshot load", SecondsBetween(t0, std::chrono::steady_clock::now()),
                     ec ? 0 : size);
    out->from_snapshot = true;
    return true;
  }
  LoadedTrace input;
  if (!LoadTraceFromPath(path, flags, &input)) {
    return false;
  }
  out->ids = input.ids;
  out->registry = std::move(input.registry);
  out->snapshot = BuildSnapshot(input.trace, *out->registry, MakeOptions(flags), &out->timings);
  out->from_snapshot = false;
  return true;
}

bool LoadAnalysisInput(const FlagSet& flags, AnalysisInput* out) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "lockdoc: missing input file (trace or .lockdb)\n");
    return false;
  }
  return LoadSnapshotFromPath(flags.positional()[1], flags, out);
}

// The flags each command accepts. Anything else is a usage error (exit 64)
// — silently ignoring `lockdoc stats --tac 0.5` would let a typo change
// nothing while looking like it did.
const std::map<std::string, std::set<std::string>>& CommandFlagTable() {
  static const auto* const table = [] {
    const std::set<std::string> common = {"salvage", "jobs", "timings", "timings-json"};
    auto with = [&common](std::set<std::string> extra) {
      extra.insert(common.begin(), common.end());
      return extra;
    };
    return new std::map<std::string, std::set<std::string>>{
        {"simulate", {"out", "ops", "seed", "clean", "script", "workload"}},
        {"import", with({"out"})},
        {"stats", {"salvage"}},
        {"derive", with({"tac", "type", "subclass", "spec", "support", "out-dir", "format"})},
        {"check", with({"rules", "format"})},
        {"violations", with({"limit", "tac", "format", "filter-config"})},
        {"lock-order", with({"format"})},
        {"modes", with({"all", "tac", "format"})},
        {"report", with({"full", "tac", "format", "filter-config"})},
        {"diff", with({"all", "tac", "format"})},
        {"export-csv", with({"dir"})},
        {"doctor", {"repair"}},
        {"serve", {"state", "once", "poll-ms", "max-resident", "max-resident-bytes",
                   "deadline-ms", "max-trace-bytes", "jobs", "workers", "listen"}},
        {"query", {}},
        {"analyze", with({"passes", "baseline", "out-dir", "tac", "rules", "limit", "all",
                          "full", "spec", "support", "type", "subclass", "format",
                          "filter-config"})},
    };
  }();
  return *table;
}

// Returns 0 when every flag is accepted by `command`, 64 (with a message on
// stderr) otherwise. Unknown commands are left for Usage().
int ValidateFlags(const std::string& command, const FlagSet& flags) {
  const auto& table = CommandFlagTable();
  auto it = table.find(command);
  if (it == table.end()) {
    return 0;
  }
  for (const std::string& name : flags.names()) {
    if (it->second.count(name) == 0) {
      std::fprintf(stderr, "lockdoc %s: unknown flag --%s\n", command.c_str(), name.c_str());
      return 64;
    }
  }
  // A bare "--timings-json" with no path parses as the boolean value "true";
  // writing JSON to a file named "true" is never what the user meant.
  if (flags.Has("timings-json") && flags.GetString("timings-json", "") == "true") {
    std::fprintf(stderr, "lockdoc: --timings-json requires an output path\n");
    return 64;
  }
  return 0;
}

// --timings: the per-phase block goes to stderr so stdout stays
// byte-identical across --jobs values (and pipeable). --timings-json PATH
// writes the same data as JSON for machine consumption (set write_json
// false when a command emits several timing blocks and this is not the
// primary one).
bool EmitTimings(const FlagSet& flags, const PipelineTimings& timings,
                 bool write_json = true) {
  if (flags.GetBool("timings", false)) {
    std::fprintf(stderr, "%s", timings.ToString().c_str());
  }
  std::string json_path = flags.GetString("timings-json", "");
  if (write_json && !json_path.empty()) {
    std::string json = timings.ToJson();
    std::ofstream file(json_path, std::ios::trunc);
    if (!file || !(file << json << "\n")) {
      std::fprintf(stderr, "lockdoc: cannot write %s\n", json_path.c_str());
      return false;
    }
  }
  return true;
}

// Fills the per-pass knobs from CLI flags. The documented-rules text comes
// from the simulated kernel unless --rules overrides it (mm inputs append
// the mm workload's rules to the base text); only `derive` routes --out-dir
// to the documentation-bundle writer (for `analyze`, --out-dir means
// per-pass output files instead).
bool FillPassOptions(const std::string& command, const FlagSet& flags, bool mm_input,
                     PassOptions* pass) {
  pass->documented_rules_text = VfsKernel::DocumentedRulesText();
  if (mm_input) {
    pass->documented_rules_text += MmKernel::DocumentedRulesText();
  }
  std::string rules_path = flags.GetString("rules", "");
  if (!rules_path.empty()) {
    std::ifstream in(rules_path);
    if (!in) {
      std::fprintf(stderr, "lockdoc: cannot open %s\n", rules_path.c_str());
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    pass->documented_rules_text = buffer.str();
  }
  pass->violation_limit = flags.GetUint64("limit", 10);
  pass->modes_all = flags.GetBool("all", false);
  pass->diff_all = flags.GetBool("all", false);
  pass->report_full = flags.GetBool("full", false);
  pass->doc_spec = flags.GetBool("spec", false);
  pass->doc_support = flags.GetBool("support", false);
  pass->doc_type = flags.GetString("type", "");
  pass->doc_subclass = flags.GetString("subclass", "");
  if (command == "derive") {
    pass->doc_out_dir = flags.GetString("out-dir", "");
  }
  return true;
}

// --format text|json|html: which renderer consumes the pass's report
// document. A bad (or bare) value is a usage error, exit 64.
bool ParseFormatFlag(const std::string& command, const FlagSet& flags, ReportFormat* format) {
  *format = ReportFormat::kText;
  if (!flags.Has("format")) {
    return true;
  }
  std::string value = flags.GetString("format", "");
  std::optional<ReportFormat> parsed = ParseReportFormat(value);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "lockdoc %s: --format must be text, json or html (got '%s')\n",
                 command.c_str(), value.c_str());
    return false;
  }
  *format = *parsed;
  return true;
}

// --filter-config FILE: the forensics blacklist applied to counterexample
// groups (suppressed counts are reported, never silent). A missing or
// malformed file is a usage error, exit 64, with the parse error's line
// number on stderr.
bool LoadForensicsFilter(const std::string& command, const FlagSet& flags,
                         std::shared_ptr<const FilterConfig>* out) {
  out->reset();
  if (!flags.Has("filter-config")) {
    return true;
  }
  std::string path = flags.GetString("filter-config", "");
  if (path.empty() || path == "true") {
    std::fprintf(stderr, "lockdoc %s: --filter-config requires a file path\n",
                 command.c_str());
    return false;
  }
  Result<FilterConfig> loaded = LoadFilterConfigFile(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "lockdoc %s: %s\n", command.c_str(),
                 loaded.status().message().c_str());
    return false;
  }
  *out = std::make_shared<FilterConfig>(std::move(loaded).value());
  return true;
}

// Renders a finished pass output in the requested format. kText reuses the
// bytes Run() already rendered (the byte-compat contract's fast path).
std::string RenderOutput(const PassOutput& out, ReportFormat format) {
  if (format == ReportFormat::kText) {
    return out.text;
  }
  return RenderReportDocument(out.doc, format);
}

// The shared shell of every single-input analysis command: load the input
// into a snapshot, wrap it in an AnalysisContext, run the registered pass
// of the same name, emit its bytes in the requested format.
int RunPassCommand(const std::string& command, const FlagSet& flags) {
  const AnalysisPass* pass = PassRegistry::Default().Find(command);
  LOCKDOC_CHECK(pass != nullptr);
  ReportFormat format;
  std::shared_ptr<const FilterConfig> filter;
  if (!ParseFormatFlag(command, flags, &format) ||
      !LoadForensicsFilter(command, flags, &filter)) {
    return 64;
  }
  AnalysisInput input;
  if (!LoadAnalysisInput(flags, &input)) {
    return 1;
  }
  AnalysisOptions options;
  options.pipeline = MakeOptions(flags);
  if (!FillPassOptions(command, flags, IsMmRegistry(*input.registry), &options.pass)) {
    return 1;
  }
  options.pass.forensics_filter = std::move(filter);
  AnalysisContext context(&input.snapshot, input.registry.get(), std::move(options),
                          &input.timings);
  PassOutput out;
  Status status = pass->Run(context, out);
  if (!status.ok()) {
    std::fprintf(stderr, "lockdoc: %s\n", status.message().c_str());
    return 1;
  }
  if (!EmitTimings(flags, input.timings)) {
    return 1;
  }
  std::string rendered = RenderOutput(out, format);
  std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  return 0;
}

int CmdSimulate(const FlagSet& flags) {
  std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "lockdoc simulate: --out is required\n");
    return 2;
  }
  FaultPlan plan = flags.GetBool("clean", false) ? FaultPlan::Clean() : FaultPlan{};

  // --workload mm: the address-space workload (range-locked mmap_lock over
  // vma spans) instead of the default VFS mix.
  std::string workload = flags.GetString("workload", "vfs");
  if (workload != "vfs" && workload != "mm") {
    std::fprintf(stderr, "lockdoc simulate: --workload must be vfs or mm (got '%s')\n",
                 workload.c_str());
    return 64;
  }

  // --script FILE: run an exact operation sequence instead of the mix.
  std::string script_path = flags.GetString("script", "");
  if (workload == "mm" && !script_path.empty()) {
    std::fprintf(stderr, "lockdoc simulate: --script drives the vfs workload only\n");
    return 64;
  }
  if (!script_path.empty()) {
    std::ifstream in(script_path);
    if (!in) {
      std::fprintf(stderr, "lockdoc: cannot open %s\n", script_path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto script = WorkloadScript::Parse(buffer.str());
    if (!script.ok()) {
      std::fprintf(stderr, "lockdoc: %s\n", script.status().message().c_str());
      return 1;
    }
    VfsIds ids;
    std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
    Trace trace;
    SimKernel sim(&trace, registry.get());
    VfsKernel vfs(&sim, registry.get(), ids, plan);
    vfs.MountAll();
    Rng rng(flags.GetUint64("seed", 1));
    Status run = script.value().Run(vfs, rng);
    if (!run.ok()) {
      std::fprintf(stderr, "lockdoc: %s\n", run.message().c_str());
      return 1;
    }
    vfs.UnmountAll();
    Status status = WriteTraceToFile(trace, out);
    if (!status.ok()) {
      std::fprintf(stderr, "lockdoc: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("wrote %zu events (%zu scripted ops) to %s\n", trace.size(),
                script.value().steps().size(), out.c_str());
    return 0;
  }

  MixOptions mix;
  mix.ops = flags.GetUint64("ops", 20000);
  mix.seed = flags.GetUint64("seed", 1);
  SimulationResult sim = workload == "mm" ? SimulateMmRun(mix, plan) : SimulateKernelRun(mix, plan);
  Status status = WriteTraceToFile(sim.trace, out);
  if (!status.ok()) {
    std::fprintf(stderr, "lockdoc: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("wrote %zu events to %s\n", sim.trace.size(), out.c_str());
  return 0;
}

// Import-once: trace -> .lockdb snapshot. Analyses on the snapshot skip the
// import/extraction phases and are byte-identical to analyses on the trace.
int CmdImport(const FlagSet& flags) {
  std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "lockdoc import: --out is required\n");
    return 2;
  }
  PipelineTimings timings;
  auto t_read = std::chrono::steady_clock::now();
  LoadedTrace input;
  if (!LoadTrace(flags, &input)) {
    return 1;
  }
  timings.Add("trace read", SecondsBetween(t_read, std::chrono::steady_clock::now()),
              input.trace.size());
  // Build + atomic publication in one overlapped pass: the bulky table
  // sections stream to disk while observation extraction still runs, and a
  // crash mid-import never leaves a torn .lockdb that a later analysis (or
  // the serve spool) would trip over.
  auto built =
      BuildAndSaveSnapshot(input.trace, *input.registry, MakeOptions(flags), out, &timings);
  if (!built.ok()) {
    std::fprintf(stderr, "lockdoc: %s\n", built.status().message().c_str());
    return 1;
  }
  const AnalysisSnapshot& snapshot = built.value();
  if (!EmitTimings(flags, timings)) {
    return 1;
  }
  Result<uint64_t> written_size = FileSize(out);
  std::printf("imported %s events into %s (%s bytes, %s observation groups)\n",
              FormatWithCommas(snapshot.import_stats.events).c_str(), out.c_str(),
              FormatWithCommas(written_size.ok() ? written_size.value() : 0).c_str(),
              FormatWithCommas(snapshot.observations.groups().size()).c_str());
  return 0;
}

int CmdStats(const FlagSet& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "lockdoc: missing input file (trace or .lockdb)\n");
    return 1;
  }
  const std::string& path = flags.positional()[1];
  if (IsSnapshotFile(path)) {
    VfsIds ids;
    std::unique_ptr<TypeRegistry> registry = RegistryForSnapshotFile(path, &ids);
    auto loaded = LoadSnapshot(path, *registry);
    if (!loaded.ok()) {
      std::fprintf(stderr, "lockdoc: %s\n", loaded.status().message().c_str());
      return 1;
    }
    std::printf("%s", loaded.value().trace_stats.ToString().c_str());
    return 0;
  }
  LoadedTrace input;
  if (!LoadTrace(flags, &input)) {
    return 1;
  }
  std::printf("%s", ComputeTraceStats(input.trace).ToString().c_str());
  return 0;
}

// diff takes two inputs, so it cannot go through RunPassCommand: the OLD
// side becomes a baseline AnalysisContext handed to the diff pass via
// PassOptions.
int CmdDiff(const FlagSet& flags) {
  if (flags.positional().size() < 3) {
    std::fprintf(stderr, "lockdoc diff: need two input files\n");
    return 2;
  }
  const AnalysisPass* pass = PassRegistry::Default().Find("diff");
  LOCKDOC_CHECK(pass != nullptr);
  ReportFormat format;
  if (!ParseFormatFlag("diff", flags, &format)) {
    return 64;
  }

  // Each side picks its own registry (a base-VFS OLD can be diffed against
  // an mm NEW; class names render identically across both).
  AnalysisInput old_input;
  if (!LoadSnapshotFromPath(flags.positional()[1], flags, &old_input)) {
    return 1;
  }
  AnalysisOptions baseline_options;
  baseline_options.pipeline = MakeOptions(flags);
  AnalysisContext baseline(&old_input.snapshot, old_input.registry.get(),
                           std::move(baseline_options), &old_input.timings);

  AnalysisInput new_input;
  if (!LoadSnapshotFromPath(flags.positional()[2], flags, &new_input)) {
    return 1;
  }
  AnalysisOptions options;
  options.pipeline = MakeOptions(flags);
  if (!FillPassOptions("diff", flags, IsMmRegistry(*new_input.registry), &options.pass)) {
    return 1;
  }
  options.pass.baseline = &baseline;
  AnalysisContext context(&new_input.snapshot, new_input.registry.get(), std::move(options),
                          &new_input.timings);

  PassOutput out;
  Status status = pass->Run(context, out);
  if (!status.ok()) {
    std::fprintf(stderr, "lockdoc: %s\n", status.message().c_str());
    return 1;
  }
  // Two timing blocks (OLD then NEW) as before the pass framework; the JSON
  // file gets the NEW input's timings.
  if (!EmitTimings(flags, old_input.timings, /*write_json=*/false) ||
      !EmitTimings(flags, new_input.timings)) {
    return 1;
  }
  std::string rendered = RenderOutput(out, format);
  std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  return 0;
}

// The tentpole command: run any subset of the registered analysis passes
// over ONE shared AnalysisContext. The input is loaded once, rules are
// derived once ("rule derivation (interned)" appears exactly once in
// --timings), the shared indexes are built at most once, and each pass's
// output — byte-identical to its standalone command — goes to stdout in
// pass order, or to DIR/<pass>.txt with --out-dir.
int CmdAnalyze(const FlagSet& flags) {
  const PassRegistry& passes = PassRegistry::Default();
  ReportFormat format;
  std::shared_ptr<const FilterConfig> filter;
  if (!ParseFormatFlag("analyze", flags, &format) ||
      !LoadForensicsFilter("analyze", flags, &filter)) {
    return 64;
  }
  bool has_baseline = flags.Has("baseline");
  if (has_baseline && flags.GetString("baseline", "") == "true") {
    std::fprintf(stderr, "lockdoc analyze: --baseline requires an input file\n");
    return 64;
  }

  // Resolve the pass list before touching any input, so a bogus --passes is
  // a usage error rather than a half-done run. Default: every single-input
  // pass, plus diff when a baseline was given.
  std::vector<const AnalysisPass*> selected;
  std::string spec = flags.GetString("passes", "");
  if (spec.empty()) {
    for (const auto& pass : passes.passes()) {
      if (pass->name() != "diff" || has_baseline) {
        selected.push_back(pass.get());
      }
    }
  } else {
    for (const std::string& token : SplitAndTrim(spec, ',')) {
      const AnalysisPass* pass = passes.Find(token);
      if (pass == nullptr) {
        std::fprintf(stderr, "lockdoc analyze: unknown pass '%s' (available: %s)\n",
                     token.c_str(), passes.JoinedNames().c_str());
        return 64;
      }
      selected.push_back(pass);
    }
    if (selected.empty()) {
      std::fprintf(stderr, "lockdoc analyze: --passes names no passes (available: %s)\n",
                   passes.JoinedNames().c_str());
      return 64;
    }
  }
  for (const AnalysisPass* pass : selected) {
    if (pass->name() == "diff" && !has_baseline) {
      std::fprintf(stderr, "lockdoc analyze: the diff pass needs --baseline OLD\n");
      return 64;
    }
  }

  AnalysisInput input;
  if (!LoadAnalysisInput(flags, &input)) {
    return 1;
  }
  AnalysisOptions options;
  options.pipeline = MakeOptions(flags);
  if (!FillPassOptions("analyze", flags, IsMmRegistry(*input.registry), &options.pass)) {
    return 1;
  }
  options.pass.forensics_filter = std::move(filter);

  // The OLD side for the diff pass, with its own matching registry.
  AnalysisInput baseline_input;
  std::unique_ptr<AnalysisContext> baseline;
  if (has_baseline) {
    if (!LoadSnapshotFromPath(flags.GetString("baseline", ""), flags, &baseline_input)) {
      return 1;
    }
    AnalysisOptions baseline_options;
    baseline_options.pipeline = MakeOptions(flags);
    baseline = std::make_unique<AnalysisContext>(&baseline_input.snapshot,
                                                 baseline_input.registry.get(),
                                                 std::move(baseline_options),
                                                 &baseline_input.timings);
    options.pass.baseline = baseline.get();
  }

  AnalysisContext context(&input.snapshot, input.registry.get(), std::move(options),
                          &input.timings);

  std::string out_dir = flags.GetString("out-dir", "");
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
  }
  size_t files_written = 0;
  for (const AnalysisPass* pass : selected) {
    PassOutput out;
    Status status = pass->Run(context, out);
    if (!status.ok()) {
      std::fprintf(stderr, "lockdoc: %s\n", status.message().c_str());
      return 1;
    }
    std::string rendered = RenderOutput(out, format);
    if (out_dir.empty()) {
      std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    } else {
      std::string path = out_dir + "/" + std::string(pass->name()) + "." +
                         std::string(ReportFormatExtension(format));
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      if (!file ||
          !file.write(rendered.data(), static_cast<std::streamsize>(rendered.size()))) {
        std::fprintf(stderr, "lockdoc: cannot write %s\n", path.c_str());
        return 1;
      }
      ++files_written;
    }
  }
  if (baseline != nullptr && !EmitTimings(flags, baseline_input.timings, /*write_json=*/false)) {
    return 1;
  }
  if (!EmitTimings(flags, input.timings)) {
    return 1;
  }
  if (!out_dir.empty()) {
    std::printf("wrote %zu pass outputs to %s\n", files_written, out_dir.c_str());
  }
  return 0;
}

int CmdExportCsv(const FlagSet& flags) {
  AnalysisInput input;
  if (!LoadAnalysisInput(flags, &input)) {
    return 1;
  }
  std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "lockdoc export-csv: --dir is required\n");
    return 2;
  }
  std::filesystem::create_directories(dir);
  Status status = input.snapshot.db.ExportDirectory(dir);
  if (!status.ok()) {
    std::fprintf(stderr, "lockdoc: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("exported %zu tables to %s\n", input.snapshot.db.TableNames().size(),
              dir.c_str());
  return 0;
}

// Container-level snapshot repair: keep every CRC-verified section, re-emit
// them with fresh sequence numbers and a fresh end section, report what was
// dropped. Returns false when nothing survived or the output is unwritable.
bool RepairSnapshotInto(const std::string& bytes, const std::string& out) {
  SnapshotRepairResult repair = RepairSnapshotBytes(bytes);
  if (!repair.salvageable()) {
    std::printf("repair failed: no intact section survived\n");
    return false;
  }
  Status written = WriteFileAtomic(out, repair.bytes);
  if (!written.ok()) {
    std::fprintf(stderr, "lockdoc: %s\n", written.message().c_str());
    return false;
  }
  for (const std::string& line : repair.dropped) {
    std::printf("dropped %s\n", line.c_str());
  }
  std::printf("repaired snapshot written to %s (%zu sections kept, %zu dropped)\n",
              out.c_str(), repair.sections_kept, repair.dropped.size());
  return true;
}

// Snapshot health check: container-level per-section verification, then a
// full load to validate the payloads. Same exit-code contract as the trace
// doctor; --repair re-emits the intact sections as a structurally clean
// container (whether it loads depends on which sections survived).
int DoctorSnapshot(const std::string& path, const std::string& repair_out) {
  auto read = ReadFileToString(path);
  if (!read.ok()) {
    std::printf("%s: %s\n", path.c_str(), read.status().message().c_str());
    std::printf("verdict: unreadable\n");
    return 2;
  }
  const std::string& bytes = read.value();
  // A retired LOCKDB01 container is unreadable, not damaged: repair cannot
  // help, re-importing from the trace does (the error says so).
  if (Status magic = CheckSnapshotMagic(bytes); !magic.ok()) {
    std::printf("%s: %s\n", path.c_str(), magic.message().c_str());
    std::printf("verdict: unreadable\n");
    return 2;
  }

  SnapshotInspection inspection = InspectSnapshot(bytes);
  if (!inspection.clean()) {
    std::printf("%s: damaged\n", path.c_str());
    std::printf("%s", inspection.ToString().c_str());
    std::printf("verdict: damaged (%zu of %zu sections intact); repair the container "
                "with --repair OUT.lockdb or re-run `lockdoc import` from the "
                "original trace\n",
                inspection.sections_ok(), inspection.sections.size());
    if (!repair_out.empty() && !RepairSnapshotInto(bytes, repair_out)) {
      return 2;
    }
    return 1;
  }

  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = RegistryForSnapshotFile(path, &ids);
  auto loaded = DeserializeSnapshot(bytes, *registry);
  if (!loaded.ok()) {
    std::printf("%s: sections intact but payload invalid\n", path.c_str());
    std::printf("%s", inspection.ToString().c_str());
    std::printf("load failed: %s\n", loaded.status().message().c_str());
    std::printf("verdict: unreadable\n");
    return 2;
  }
  std::printf("%s: clean\n", path.c_str());
  std::printf("%s", inspection.ToString().c_str());
  if (!repair_out.empty() && !RepairSnapshotInto(bytes, repair_out)) {
    return 2;
  }
  return 0;
}

// File health check (traces and snapshots). Exit codes: 0 = clean, 1 =
// damaged but salvageable, 2 = unreadable, 64 = usage error.
int CmdDoctor(const FlagSet& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "usage: lockdoc doctor FILE [--repair OUT.trace]\n");
    return 64;
  }
  const std::string& path = flags.positional()[1];
  // A bare "--repair" with no path parses as the boolean value "true";
  // writing a trace to a file named "true" is never what the user meant.
  if (flags.GetString("repair", "") == "true") {
    std::fprintf(stderr, "lockdoc: --repair requires an output path\n");
    return 64;
  }

  if (IsSnapshotFile(path)) {
    return DoctorSnapshot(path, flags.GetString("repair", ""));
  }

  // Pass 1: strict. A clean trace parses without any anomaly.
  TraceReadReport report;
  auto strict = ReadTraceFromFile(path, {}, &report);
  if (strict.ok()) {
    std::printf("%s: clean\n", path.c_str());
    std::printf("%s", report.ToString().c_str());
    return 0;
  }
  std::printf("%s: damaged\n", path.c_str());
  std::printf("strict read failed: %s\n", strict.status().message().c_str());

  // Pass 2: salvage. Succeeds if anything interpretable survives.
  TraceReadOptions options;
  options.salvage = true;
  auto salvaged = ReadTraceFromFile(path, options, &report);
  if (!salvaged.ok()) {
    std::printf("salvage failed: %s\n", salvaged.status().message().c_str());
    std::printf("verdict: unreadable\n");
    return 2;
  }
  std::printf("%s", report.ToString().c_str());

  std::string repair_out = flags.GetString("repair", "");
  if (!repair_out.empty()) {
    Status written = WriteTraceToFile(salvaged.value(), repair_out);
    if (!written.ok()) {
      std::fprintf(stderr, "lockdoc: %s\n", written.message().c_str());
      return 2;
    }
    std::printf("repaired trace written to %s (%zu events)\n", repair_out.c_str(),
                salvaged.value().size());
  }
  std::printf("verdict: salvageable (%llu events recovered)\n",
              static_cast<unsigned long long>(report.events_salvaged));
  return 1;
}

std::atomic<bool> g_serve_stop{false};

void HandleServeSignal(int /*signum*/) { g_serve_stop.store(true); }

// Strictly-parsed unsigned serve flag: a value like "--max-resident lots"
// must be a usage error, not silently the default.
bool GetServeUint(const FlagSet& flags, const char* name, uint64_t default_value,
                  uint64_t* out) {
  if (!flags.Has(name)) {
    *out = default_value;
    return true;
  }
  if (!ParseUint64(flags.GetString(name, ""), out)) {
    std::fprintf(stderr, "lockdoc serve: --%s requires a non-negative integer\n", name);
    return false;
  }
  return true;
}

// The long-lived analysis service (src/serve/service.h): watch a spool
// directory, import arriving traces into crash-safe .lockdb snapshots, and
// answer pass requests byte-identically to the standalone commands. --once
// drains the spool and exits (CI smoke and the chaos harness); otherwise
// runs until SIGINT/SIGTERM.
int CmdServe(const FlagSet& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "usage: lockdoc serve SPOOL_DIR [--state DIR] [--once] ...\n");
    return 64;
  }
  if (flags.Has("state") && flags.GetString("state", "") == "true") {
    std::fprintf(stderr, "lockdoc serve: --state requires a directory path\n");
    return 64;
  }
  const bool once = flags.GetBool("once", false);
  if (once && flags.Has("poll-ms")) {
    std::fprintf(stderr, "lockdoc serve: --once and --poll-ms conflict\n");
    return 64;
  }
  if (once && flags.Has("listen")) {
    // A socket endpoint needs a long-lived process; a drain-and-exit run
    // would tear it down mid-connection.
    std::fprintf(stderr, "lockdoc serve: --once and --listen conflict\n");
    return 64;
  }
  ServeServiceOptions options;
  uint64_t max_resident = 0;
  uint64_t poll_ms = 0;
  uint64_t workers = 0;
  if (!GetServeUint(flags, "max-resident", 8, &max_resident) ||
      !GetServeUint(flags, "max-resident-bytes", options.max_resident_bytes,
                    &options.max_resident_bytes) ||
      !GetServeUint(flags, "max-trace-bytes", options.max_trace_bytes,
                    &options.max_trace_bytes) ||
      !GetServeUint(flags, "deadline-ms", 0, &options.deadline_ms) ||
      !GetServeUint(flags, "poll-ms", 200, &poll_ms) ||
      !GetServeUint(flags, "jobs", 0, &options.pipeline.jobs) ||
      !GetServeUint(flags, "workers", 0, &workers)) {
    return 64;
  }
  if (max_resident == 0) {
    std::fprintf(stderr, "lockdoc serve: --max-resident must be at least 1\n");
    return 64;
  }
  if (flags.Has("workers") && workers == 0) {
    std::fprintf(stderr, "lockdoc serve: --workers must be at least 1\n");
    return 64;
  }
  options.max_resident = static_cast<size_t>(max_resident);
  options.workers = static_cast<size_t>(workers);
  ServeSocketOptions socket_options;
  const bool listen = flags.Has("listen");
  if (listen) {
    Status status = ParseHostPort(flags.GetString("listen", ""), &socket_options.host,
                                  &socket_options.port);
    if (!status.ok()) {
      std::fprintf(stderr, "lockdoc serve: --listen: %s\n", status.message().c_str());
      return 64;
    }
    socket_options.max_frame_bytes = options.max_trace_bytes;
  }
  options.pipeline.filter = VfsKernel::MakeFilterConfig();
  options.documented_rules_text = VfsKernel::DocumentedRulesText();
  options.extended_documented_rules_text =
      VfsKernel::DocumentedRulesText() + MmKernel::DocumentedRulesText();

  SpoolLayout layout = MakeSpoolLayout(flags.positional()[1], flags.GetString("state", ""));
  if (Status status = EnsureSpoolLayout(layout); !status.ok()) {
    std::fprintf(stderr, "lockdoc serve: %s\n", status.message().c_str());
    return 64;
  }

  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  VfsIds mm_ids;
  std::unique_ptr<TypeRegistry> mm_registry = BuildVfsMmRegistry(&mm_ids);
  ServeService service(layout, registry.get(), std::move(options), mm_registry.get());
  if (Status status = service.Recover(); !status.ok()) {
    std::fprintf(stderr, "lockdoc serve: recovery: %s\n", status.message().c_str());
    return 1;
  }

  int exit_code = 0;
  if (once) {
    // Drain until idle: a request may target a snapshot ingested this run.
    for (;;) {
      auto handled = service.ProcessOnce();
      if (!handled.ok()) {
        std::fprintf(stderr, "lockdoc serve: %s\n", handled.status().message().c_str());
        exit_code = 1;
        break;
      }
      if (handled.value() == 0) {
        break;
      }
    }
  } else {
    g_serve_stop.store(false);
    std::signal(SIGINT, HandleServeSignal);
    std::signal(SIGTERM, HandleServeSignal);
    std::unique_ptr<ServeSocketServer> socket_server;
    if (listen) {
      socket_server = std::make_unique<ServeSocketServer>(&service, socket_options);
      if (Status status = socket_server->Start(); !status.ok()) {
        std::fprintf(stderr, "lockdoc serve: --listen: %s\n", status.message().c_str());
        return 1;
      }
      // Announce the bound endpoint (resolving port 0) so clients and tests
      // can find an ephemeral port. Flushed: daemons get backgrounded.
      std::fprintf(stderr, "lockdoc serve: listening on %s:%u\n",
                   socket_options.host.c_str(), socket_server->port());
      std::fflush(stderr);
    }
    Status status = service.RunLoop(g_serve_stop, poll_ms);
    if (socket_server != nullptr) {
      socket_server->Stop();
    }
    if (!status.ok()) {
      std::fprintf(stderr, "lockdoc serve: %s\n", status.message().c_str());
      exit_code = 1;
    }
  }
  std::printf("%s\n", service.stats().ToString().c_str());
  if (!service.DrainZombies(200)) {
    // A timed-out worker is still running; unwinding static destructors
    // under a live thread would crash, so flush and leave directly.
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(exit_code);
  }
  return exit_code;
}

// Socket client for a serve instance started with --listen: sends one
// request file over the framed protocol and prints the response. The pass
// output goes to stdout byte-identically to the standalone command (and to
// the spool's .out file) so tests can cmp all three; the meta record goes
// to stderr. Exit 0 on status=ok, 1 on a typed error or transport failure.
int CmdQuery(const FlagSet& flags) {
  if (flags.positional().size() < 3) {
    std::fprintf(stderr, "usage: lockdoc query HOST:PORT REQUEST.req\n");
    return 64;
  }
  std::string host;
  uint16_t port = 0;
  if (Status status = ParseHostPort(flags.positional()[1], &host, &port); !status.ok()) {
    std::fprintf(stderr, "lockdoc query: %s\n", status.message().c_str());
    return 64;
  }
  auto request = ReadFileToString(flags.positional()[2]);
  if (!request.ok()) {
    std::fprintf(stderr, "lockdoc query: %s\n", request.status().message().c_str());
    return 1;
  }
  auto connection = ConnectTcp(host, port);
  if (!connection.ok()) {
    std::fprintf(stderr, "lockdoc query: %s\n", connection.status().message().c_str());
    return 1;
  }
  const int fd = connection.value().get();
  if (Status status = WriteFrame(fd, request.value()); !status.ok()) {
    std::fprintf(stderr, "lockdoc query: %s\n", status.message().c_str());
    return 1;
  }
  // The server computes arbitrary-sized analyses; allow it a generous
  // window per response frame once bytes start flowing.
  constexpr uint64_t kResponseDeadlineMs = 600000;
  FrameRead meta = ReadFrame(fd, kResponseDeadlineMs, kResponseDeadlineMs, 0);
  if (meta.status != FrameStatus::kOk) {
    std::fprintf(stderr, "lockdoc query: no response meta (%s)\n",
                 meta.error.empty() ? "connection closed" : meta.error.c_str());
    return 1;
  }
  FrameRead out = ReadFrame(fd, kResponseDeadlineMs, kResponseDeadlineMs, 0);
  if (out.status != FrameStatus::kOk) {
    std::fprintf(stderr, "lockdoc query: no response body (%s)\n",
                 out.error.empty() ? "connection closed" : out.error.c_str());
    return 1;
  }
  std::fputs(meta.payload.c_str(), stderr);
  std::fwrite(out.payload.data(), 1, out.payload.size(), stdout);
  return StartsWith(meta.payload, "status=ok") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "lockdoc: %s\n", error.c_str());
    return 2;
  }
  if (flags.positional().empty()) {
    return Usage();
  }
  const std::string& command = flags.positional()[0];
  if (int usage_error = ValidateFlags(command, flags); usage_error != 0) {
    return usage_error;
  }
  if (command == "simulate") {
    return CmdSimulate(flags);
  }
  if (command == "import") {
    return CmdImport(flags);
  }
  if (command == "stats") {
    return CmdStats(flags);
  }
  // The single-input phase-3 analyses are all registered passes sharing one
  // command shell.
  if (command == "derive" || command == "check" || command == "violations" ||
      command == "lock-order" || command == "modes" || command == "report") {
    return RunPassCommand(command, flags);
  }
  if (command == "diff") {
    return CmdDiff(flags);
  }
  if (command == "analyze") {
    return CmdAnalyze(flags);
  }
  if (command == "export-csv") {
    return CmdExportCsv(flags);
  }
  if (command == "doctor") {
    return CmdDoctor(flags);
  }
  if (command == "serve") {
    return CmdServe(flags);
  }
  if (command == "query") {
    return CmdQuery(flags);
  }
  return Usage();
}
