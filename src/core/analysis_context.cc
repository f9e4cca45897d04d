#include "src/core/analysis_context.h"

#include <chrono>
#include <utility>

#include "src/util/logging.h"

namespace lockdoc {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

AnalysisContext::AnalysisContext(const AnalysisSnapshot* snapshot, const TypeRegistry* registry,
                                 AnalysisOptions options, PipelineTimings* timings)
    : snapshot_(snapshot),
      registry_(registry),
      options_(std::move(options)),
      pool_(options_.pipeline.jobs),
      timings_(timings != nullptr ? timings : &own_timings_) {
  LOCKDOC_CHECK(snapshot_ != nullptr);
  timings_->jobs = pool_.thread_count();
}

AnalysisContext::~AnalysisContext() = default;

const TypeRegistry& AnalysisContext::registry() const {
  LOCKDOC_CHECK(registry_ != nullptr && "this analysis needs a type registry");
  return *registry_;
}

const std::vector<DerivationResult>& AnalysisContext::rules() {
  std::call_once(rules_once_, [&] {
    auto t0 = Clock::now();
    RuleDerivator derivator(options_.pipeline.derivator);
    rules_ = derivator.DeriveAll(snapshot_->observations, &pool_);
    timings_->Add("rule derivation (interned)", Seconds(t0, Clock::now()),
                  static_cast<uint64_t>(snapshot_->observations.groups().size()) * 2);
    timings_->mining.enum_cache_hits = snapshot_->observations.enum_cache_hits();
    timings_->mining.enum_cache_misses = snapshot_->observations.enum_cache_misses();
    for (const DerivationResult& rule : rules_) {
      timings_->mining.candidates_scored += rule.candidates_scored;
    }
  });
  return rules_;
}

const LockOrderGraph& AnalysisContext::lock_order_graph() {
  std::call_once(lock_order_once_, [&] {
    lock_order_ =
        std::make_unique<LockOrderGraph>(LockOrderGraph::Build(snapshot_->db, registry()));
  });
  return *lock_order_;
}

const MemberAccessIndex& AnalysisContext::member_access_index() {
  std::call_once(member_access_once_, [&] {
    member_access_ =
        std::make_unique<MemberAccessIndex>(MemberAccessIndex::Build(snapshot_->observations));
  });
  return *member_access_;
}

const LockPostingIndex& AnalysisContext::lock_postings() {
  std::call_once(postings_once_, [&] {
    postings_ =
        std::make_unique<LockPostingIndex>(LockPostingIndex::Build(snapshot_->observations));
  });
  return *postings_;
}

const std::vector<ModeReportEntry>& AnalysisContext::mode_entries() {
  std::call_once(mode_entries_once_, [&] {
    const std::vector<DerivationResult>& derived = rules();
    auto t0 = Clock::now();
    mode_entries_ = ModeAnalyzer(*this).Analyze(derived);
    timings_->Add("mode analysis", Seconds(t0, Clock::now()), derived.size());
  });
  return mode_entries_;
}

const std::vector<Violation>& AnalysisContext::violations() {
  std::call_once(violations_once_, [&] {
    const std::vector<DerivationResult>& derived = rules();
    auto t0 = Clock::now();
    violations_ = ViolationFinder(*this).FindAll(derived);
    timings_->Add("violation finding", Seconds(t0, Clock::now()), derived.size());
  });
  return violations_;
}

Result<std::shared_ptr<const std::vector<RuleCheckResult>>> AnalysisContext::check_results(
    const std::string& documented_text) {
  std::lock_guard<std::mutex> lock(check_mu_);
  if (check_results_ == nullptr || check_text_ != documented_text) {
    auto documented = RuleSet::ParseText(documented_text);
    if (!documented.ok()) {
      return documented.status();
    }
    auto t0 = Clock::now();
    check_results_ = std::make_shared<const std::vector<RuleCheckResult>>(
        RuleChecker(*this).CheckAll(documented.value()));
    check_text_ = documented_text;
    timings_->Add("rule checking", Seconds(t0, Clock::now()), documented.value().size());
  }
  return check_results_;
}

RuleCompliance AnalysisContext::Compliance(const LockSeq& rule) {
  return RuleCompliance(snapshot_->observations, member_access_index(), lock_postings(), rule);
}

std::vector<DerivationResult> AnalysisContext::TakeRules() {
  rules();
  return std::move(rules_);
}

}  // namespace lockdoc
