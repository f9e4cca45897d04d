// Traced run of the perfbench workloads.
//
// Calls the repository's public functions in the order `lockdoc import`,
// `lockdoc analyze`, `lockdoc analyze --passes check` and `lockdoc serve`
// call them, and wraps each call in a span (name, start, end, parent) kept
// in memory. No program source is instrumented: every layer is timed from
// outside, at its public entry point. At the end the spans, a few counters
// and the answers produced are written out for perfbench/run.py, which
// turns them into the per-layer metrics and checks the answers' bytes.
//
// Usage:
//   lockdoc_perf_trace --vfs VFS.trace --mm MM.trace --work DIR
//                      --warm WARM.seq --churn CHURN.seq --out SPANS.json
//                      [--cli-repeats N]
// The CLI sequence (import, analyze, check) runs N times, one
// workload.cli-vfs root span each; the serve sequences run once.
// A .seq file holds one request per line: "PASS INPUT FORMAT".
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/analysis_context.h"
#include "src/core/analysis_pass.h"
#include "src/core/pipeline.h"
#include "src/core/snapshot.h"
#include "src/db/snapshot.h"
#include "src/report/render.h"
#include "src/serve/service.h"
#include "src/serve/socket.h"
#include "src/serve/spool.h"
#include "src/trace/trace_io.h"
#include "src/util/file_io.h"
#include "src/util/flags.h"
#include "src/util/socket.h"
#include "src/util/thread_pool.h"
#include "src/vfs/mm_kernel.h"
#include "src/vfs/types.h"
#include "src/vfs/vfs_kernel.h"

namespace lockdoc {
namespace {

using Clock = std::chrono::steady_clock;

// In-memory span recorder. Spans nest by call order on one thread; the
// parent of a span is whichever span was open when it began.
class Tracer {
 public:
  int Begin(const std::string& name) {
    spans_.push_back({name, Now(), -1.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    spans_[id].end = Now();
    stack_.pop_back();
  }
  // A span whose interval is known only from a duration another layer
  // reported (PipelineTimings phases), placed under the open span.
  void AddChild(const std::string& name, double start, double seconds) {
    spans_.push_back({name, start, start + seconds, stack_.empty() ? -1 : stack_.back()});
  }
  double Now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }
  double start_of(int id) const { return spans_[id].start; }

  void Value(const std::string& name, double value) { values_[name] = value; }
  void AddValue(const std::string& name, double value) { values_[name] += value; }

  std::string ToJson() const {
    std::ostringstream out;
    out.precision(9);
    out << "{\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"start\": " << s.start
          << ", \"end\": " << s.end << ", \"parent\": " << s.parent << "}";
    }
    out << "],\n\"values\": {";
    bool first = true;
    for (const auto& [name, value] : values_) {
      out << (first ? "\n" : ",\n") << "\"" << name << "\": " << value;
      first = false;
    }
    out << "}}\n";
    return out.str();
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> values_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name) : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "lockdoc_perf_trace: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) {
    Fail(what + ": " + result.status().message());
  }
  return std::move(result).value();
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) {
    Fail(what + ": " + status.message());
  }
}

// The CLI's registry choice for a trace (tools/lockdoc.cc
// TraceNeedsMmRegistry): the extended registry when any event is ranged or
// allocates a type past the base VFS set.
bool TraceNeedsMmRegistry(const Trace& trace) {
  for (const TraceEvent& e : trace.events()) {
    if (e.has_range ||
        (e.kind == EventKind::kAlloc && e.type != kInvalidTypeId && e.type >= VfsBaseTypeCount())) {
      return true;
    }
  }
  return false;
}

// The CLI's defaults: VFS filter, tac 0.9, all hardware lanes, documented
// rules of the simulated kernel (plus the mm rules for mm inputs), limit 10.
AnalysisOptions CliAnalysisOptions(bool mm_input) {
  AnalysisOptions options;
  options.pipeline.filter = VfsKernel::MakeFilterConfig();
  options.pipeline.derivator.accept_threshold = 0.9;
  options.pipeline.jobs = 0;
  options.pass.documented_rules_text = VfsKernel::DocumentedRulesText();
  if (mm_input) {
    options.pass.documented_rules_text += MmKernel::DocumentedRulesText();
  }
  return options;
}

struct Loaded {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry;
  AnalysisSnapshot snapshot;
  bool mm = false;
};

// `lockdoc import TRACE --out DB`, as serve's ingest does it (read, build,
// serialize, publish atomically).
void TracedImport(Tracer& t, const std::string& trace_path, const std::string& out_path) {
  Scope cmd(t, "cmd.import");
  Trace trace;
  {
    Scope s(t, "trace.read");
    ThreadPool pool(0);
    TraceReadOptions options;
    options.pool = &pool;
    TraceReadReport report;
    trace = Must(ReadTraceFromFile(trace_path, options, &report), "read " + trace_path);
  }
  t.Value("trace.events", static_cast<double>(trace.size()));
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry =
      TraceNeedsMmRegistry(trace) ? BuildVfsMmRegistry(&ids) : BuildVfsRegistry(&ids);
  AnalysisSnapshot snapshot;
  {
    Scope s(t, "core.build_snapshot");
    PipelineTimings timings;
    snapshot = BuildSnapshot(trace, *registry, CliAnalysisOptions(false).pipeline, &timings);
    double at = t.start_of(s.id());
    for (const PhaseTiming& phase : timings.phases) {
      std::string name = phase.phase == "database import"          ? "core.database_import"
                         : phase.phase == "observation extraction" ? "core.observation_extraction"
                                                                   : "core.other";
      t.AddChild(name, at, phase.seconds);
      at += phase.seconds;
    }
  }
  std::string bytes;
  {
    Scope s(t, "snapshot.serialize");
    bytes = Must(SerializeSnapshotBytes(snapshot, *registry), "serialize");
  }
  t.Value("snapshot.bytes", static_cast<double>(bytes.size()));
  {
    Scope s(t, "snapshot.save");
    Must(WriteFileAtomic(out_path, bytes), "save " + out_path);
  }
}

// The CLI input sniff and load of a .lockdb (tools/lockdoc.cc
// LoadSnapshotFromPath).
void TracedLoad(Tracer& t, const std::string& path, Loaded* out) {
  {
    Scope s(t, "cli.sniff");
    if (!IsSnapshotFile(path)) {
      Fail(path + " is not a .lockdb");
    }
    uint64_t type_count = 0;
    {
      Scope peek(t, "snapshot.peek");
      type_count = Must(PeekSnapshotTypeCount(path), "peek " + path);
    }
    out->mm = type_count > VfsBaseTypeCount();
    out->registry = out->mm ? BuildVfsMmRegistry(&out->ids) : BuildVfsRegistry(&out->ids);
  }
  Scope s(t, "snapshot.load");
  out->snapshot = Must(LoadSnapshot(path, *out->registry), "load " + path);
}

// `lockdoc analyze DB` (all single-input passes, text): indexes are built
// explicitly first so each pass span is the pass's own time. The pass
// outputs are kept for the renderer measurements.
std::string TracedAnalyze(Tracer& t, const std::string& path, std::vector<PassOutput>* outputs) {
  Scope cmd(t, "cmd.analyze");
  Loaded input;
  TracedLoad(t, path, &input);
  AnalysisContext context(&input.snapshot, input.registry.get(), CliAnalysisOptions(input.mm));
  {
    Scope s(t, "index.rules");
    context.rules();
  }
  {
    Scope s(t, "index.lock_order_graph");
    context.lock_order_graph();
  }
  {
    Scope s(t, "index.member_access");
    context.member_access_index();
  }
  {
    Scope s(t, "index.lock_postings");
    context.lock_postings();
  }
  const MiningStats& mining = context.timings().mining;
  t.Value("mining.enum_cache_hits", static_cast<double>(mining.enum_cache_hits));
  t.Value("mining.enum_cache_misses", static_cast<double>(mining.enum_cache_misses));
  std::string stdout_bytes;
  for (const auto& pass : PassRegistry::Default().passes()) {
    if (pass->name() == "diff") {
      continue;
    }
    Scope s(t, "pass." + std::string(pass->name()));
    PassOutput out;
    Must(pass->Run(context, out), "pass " + std::string(pass->name()));
    stdout_bytes += out.text;
    outputs->push_back(std::move(out));
  }
  return stdout_bytes;
}

// `lockdoc analyze DB --passes check`: indexes build lazily inside the pass,
// as they do in the CLI.
std::string TracedCheck(Tracer& t, const std::string& path) {
  Scope cmd(t, "cmd.check");
  Loaded input;
  TracedLoad(t, path, &input);
  AnalysisContext context(&input.snapshot, input.registry.get(), CliAnalysisOptions(input.mm));
  Scope s(t, "check.run");
  PassOutput out;
  Must(PassRegistry::Default().Find("check")->Run(context, out), "check");
  return out.text;
}

struct Request {
  std::string pass;
  std::string input;
  std::string format;
  std::string Text() const { return "pass=" + pass + "\ninput=" + input + "\nformat=" + format + "\n"; }
  std::string Key() const { return pass + "." + input + "." + format; }
};

std::vector<Request> ReadSequence(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Fail("cannot open " + path);
  }
  std::vector<Request> requests;
  Request r;
  while (in >> r.pass >> r.input >> r.format) {
    requests.push_back(r);
  }
  return requests;
}

void CopyInto(const std::string& from, const std::string& dir, const std::string& name) {
  std::filesystem::copy_file(from, dir + "/" + name,
                             std::filesystem::copy_options::overwrite_existing);
}

// One `lockdoc serve` instance in process, configured as the CLI
// configures it.
struct ServeHarness {
  VfsIds ids;
  VfsIds mm_ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  std::unique_ptr<TypeRegistry> mm_registry = BuildVfsMmRegistry(&mm_ids);
  SpoolLayout layout;
  std::unique_ptr<ServeService> service;

  ServeHarness(const std::string& spool, size_t max_resident) {
    std::filesystem::remove_all(spool);
    std::filesystem::create_directories(spool);
    layout = MakeSpoolLayout(spool, "");
    Must(EnsureSpoolLayout(layout), "spool " + spool);
    ServeServiceOptions options;
    options.workers = 2;
    options.max_resident = max_resident;
    options.pipeline.filter = VfsKernel::MakeFilterConfig();
    options.documented_rules_text = VfsKernel::DocumentedRulesText();
    options.extended_documented_rules_text =
        VfsKernel::DocumentedRulesText() + MmKernel::DocumentedRulesText();
    service = std::make_unique<ServeService>(layout, registry.get(), std::move(options),
                                             mm_registry.get());
    Must(service->Recover(), "recover");
  }
};

std::string AnswerOrFail(ServeService& service, const Request& r) {
  ServeService::ServeAnswer answer = service.AnswerFromText("bench", r.Text());
  if (!answer.meta.ok) {
    Fail("serve answer " + r.Key() + ": " + answer.meta.error);
  }
  return std::move(answer.text);
}

// The client side of `lockdoc query`: one framed request, then the meta
// frame and the output frame. No socket options are set.
std::string SocketQuery(int fd, const Request& r) {
  Must(WriteFrame(fd, r.Text()), "send");
  FrameRead meta = ReadFrame(fd, 600000, 600000, 0);
  FrameRead out = ReadFrame(fd, 600000, 600000, 0);
  if (meta.status != FrameStatus::kOk || out.status != FrameStatus::kOk ||
      meta.payload.rfind("status=ok", 0) != 0) {
    Fail("socket answer " + r.Key() + ": " + meta.payload + meta.error);
  }
  return std::move(out.payload);
}

void SaveAnswer(const std::string& dir, const Request& r, const std::string& bytes) {
  std::string path = dir + "/" + r.Key();
  if (!std::filesystem::exists(path)) {
    Must(WriteFileAtomic(path, bytes), "write " + path);
  }
}

void ServeWarm(Tracer& t, const std::string& work, const std::string& vfs, const std::string& mm,
               const std::vector<Request>& requests, const std::string& answers) {
  ServeHarness serve(work + "/spool-warm", 8);
  CopyInto(vfs, serve.layout.incoming_dir, "vfs.trace");
  CopyInto(mm, serve.layout.incoming_dir, "mm.trace");
  Scope w(t, "workload.serve-warm");
  {
    Scope s(t, "serve.ingest_scan");
    Must(serve.service->ProcessOnce(), "ingest");
  }
  {
    // Loads both residents and builds their lazy indexes, as the untraced
    // benchmark's set-up does before timing.
    Scope s(t, "serve.warmup");
    for (const Request& r : requests) {
      SaveAnswer(answers, r, AnswerOrFail(*serve.service, r));
    }
  }
  std::vector<std::string> in_process;
  for (const Request& r : requests) {
    Scope s(t, "serve.answer.warm");
    in_process.push_back(AnswerOrFail(*serve.service, r));
  }
  ServeSocketServer server(serve.service.get(), ServeSocketOptions{});
  Must(server.Start(), "listen");
  UniqueFd fd = Must(ConnectTcp("127.0.0.1", server.port()), "connect");
  for (size_t i = 0; i < requests.size(); ++i) {
    std::string bytes;
    {
      Scope s(t, "serve.socket.warm");
      bytes = SocketQuery(fd.get(), requests[i]);
    }
    if (bytes != in_process[i]) {
      Fail("socket bytes differ from in-process bytes for " + requests[i].Key());
    }
  }
  fd.Reset();
  server.Stop();
}

void ServeChurn(Tracer& t, const std::string& work, const std::string& vfs, const std::string& mm,
                const std::vector<Request>& requests, const std::string& answers) {
  ServeHarness serve(work + "/spool-churn", 1);
  CopyInto(vfs, serve.layout.incoming_dir, "vfs.trace");
  CopyInto(mm, serve.layout.incoming_dir, "mm.trace");
  CopyInto(mm, serve.layout.incoming_dir, "mm2.trace");
  Must(serve.service->ProcessOnce(), "ingest");
  Scope w(t, "workload.serve-churn");
  // The churn workload re-drops the mm trace under its own name every few
  // requests; here each drop is one ingest-only scan.
  constexpr size_t kDropEvery = 16;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i % kDropEvery == kDropEvery - 1) {
      CopyInto(mm, serve.layout.incoming_dir, "mm.trace");
      Scope s(t, "serve.ingest_scan");
      Must(serve.service->ProcessOnce(), "re-ingest");
    }
    std::string bytes;
    {
      Scope s(t, "serve.answer.cold");
      bytes = AnswerOrFail(*serve.service, requests[i]);
    }
    SaveAnswer(answers, requests[i], bytes);
  }
  t.Value("serve.answered", static_cast<double>(serve.service->stats().answered_ok));
  t.Value("serve.evictions", static_cast<double>(serve.service->stats().evictions));
}

}  // namespace
}  // namespace lockdoc

int main(int argc, char** argv) {
  using namespace lockdoc;
  FlagSet flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    Fail(error);
  }
  const std::string vfs = flags.GetString("vfs", "");
  const std::string mm = flags.GetString("mm", "");
  const std::string work = flags.GetString("work", "");
  const std::string out = flags.GetString("out", "");
  if (vfs.empty() || mm.empty() || work.empty() || out.empty() || !flags.Has("warm") ||
      !flags.Has("churn")) {
    Fail("usage: --vfs T --mm T --work DIR --warm SEQ --churn SEQ --out JSON");
  }
  const std::string answers = work + "/answers";
  std::filesystem::create_directories(answers);
  std::vector<Request> warm = ReadSequence(flags.GetString("warm", ""));
  std::vector<Request> churn = ReadSequence(flags.GetString("churn", ""));

  Tracer t;
  const std::string db = work + "/traced.lockdb";
  std::vector<PassOutput> outputs;
  const uint64_t cli_repeats = flags.GetUint64("cli-repeats", 1);
  for (uint64_t rep = 0; rep < cli_repeats; ++rep) {
    Scope w(t, "workload.cli-vfs");
    outputs.clear();
    TracedImport(t, vfs, db);
    Must(WriteFileAtomic(answers + "/analyze.vfs.text", TracedAnalyze(t, db, &outputs)), "write");
    Must(WriteFileAtomic(answers + "/check.vfs.text", TracedCheck(t, db)), "write");
  }

  // Benchmark-side measurements that are not part of any command: the
  // section sizes of the imported file and the cost of each renderer over
  // the six pass documents of the vfs input.
  std::string bytes = Must(ReadFileToString(db), "read " + db);
  for (const SnapshotSectionReport& section : InspectSnapshot(bytes).sections) {
    t.AddValue(std::string("snapshot.section_bytes.") + SnapshotSectionName(section.type),
               static_cast<double>(section.payload_size));
  }
  for (ReportFormat format : {ReportFormat::kText, ReportFormat::kJson, ReportFormat::kHtml}) {
    const std::string name = "render." + std::string(ReportFormatName(format));
    Scope s(t, name);
    for (const PassOutput& pass : outputs) {
      t.AddValue(name + "_bytes", static_cast<double>(RenderReportDocument(pass.doc, format).size()));
    }
  }

  ServeWarm(t, work, vfs, mm, warm, answers);
  ServeChurn(t, work, vfs, mm, churn, answers);
  Must(WriteFileAtomic(out, t.ToJson()), "write " + out);
  return 0;
}
