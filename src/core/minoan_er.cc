#include "core/minoan_er.h"

#include <cmath>
#include <memory>
#include <sstream>

#include "core/session.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace minoan {

std::string_view BlockerChoiceName(BlockerChoice choice) {
  switch (choice) {
    case BlockerChoice::kToken:
      return "token";
    case BlockerChoice::kPis:
      return "pis";
    case BlockerChoice::kAttributeClustering:
      return "attr-cluster";
    case BlockerChoice::kTokenPlusPis:
      return "token+pis";
    case BlockerChoice::kQGram:
      return "qgram";
    case BlockerChoice::kSortedNeighborhood:
      return "sorted-nbhd";
  }
  return "?";
}

namespace {

std::string FormatValue(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

Status WorkflowOptions::Validate() const {
  if (!std::isfinite(filter_ratio) || filter_ratio <= 0.0 ||
      filter_ratio > 1.0) {
    return Status::InvalidArgument("filter_ratio must be in (0, 1], got " +
                                   FormatValue(filter_ratio) +
                                   " (1 disables filtering)");
  }
  if (num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        "num_threads must be in [0, " + std::to_string(kMaxThreads) +
        "] (0 = hardware concurrency), got " + std::to_string(num_threads));
  }
  return ValidateLoopOptions(progressive, similarity);
}

std::unique_ptr<BlockingMethod> MakeWorkflowBlocker(
    const WorkflowOptions& options) {
  std::unique_ptr<BlockingMethod> blocker;
  switch (options.blocker) {
    case BlockerChoice::kToken:
      blocker = std::make_unique<TokenBlocking>(options.token_options);
      break;
    case BlockerChoice::kPis:
      blocker = std::make_unique<PisBlocking>(options.pis_options);
      break;
    case BlockerChoice::kAttributeClustering:
      blocker = std::make_unique<AttributeClusteringBlocking>(
          options.attr_options);
      break;
    case BlockerChoice::kTokenPlusPis: {
      std::vector<std::unique_ptr<BlockingMethod>> methods;
      methods.push_back(
          std::make_unique<TokenBlocking>(options.token_options));
      methods.push_back(std::make_unique<PisBlocking>(options.pis_options));
      blocker = std::make_unique<CompositeBlocking>(std::move(methods));
      break;
    }
    case BlockerChoice::kQGram:
      blocker = std::make_unique<QGramBlocking>(options.qgram_options);
      break;
    case BlockerChoice::kSortedNeighborhood:
      blocker = std::make_unique<SortedNeighborhoodBlocking>(
          options.sn_options);
      break;
  }
  if (blocker == nullptr) {
    blocker = std::make_unique<TokenBlocking>(options.token_options);
  }
  blocker->set_memory_budget(options.memory);
  return blocker;
}

Result<ResolutionReport> MinoanEr::Run(
    const EntityCollection& collection) const {
  // The one-shot workflow is a degenerate session: open, spend the whole
  // budget in one step, assemble the report.
  MINOAN_ASSIGN_OR_RETURN(ResolutionSession session,
                          ResolutionSession::Open(collection, options_));
  session.Step(0);
  ResolutionReport report = session.Report();
  MINOAN_LOG(kInfo) << "MinoanER run: " << report.progressive.run.matches.size()
                    << " matches in "
                    << report.progressive.run.comparisons_executed
                    << " comparisons";
  return report;
}

std::string ResolutionReport::Summary() const {
  Table table({"phase", "ms", "output"});
  for (const PhaseStats& p : phases) {
    table.AddRow().Cell(p.name).Cell(p.millis, 2).Cell(p.output_cardinality);
  }
  std::ostringstream os;
  table.Print(os);
  os << "comparisons: " << comparisons_before_meta << " (aggregate) -> "
     << comparisons_after_meta << " (retained)\n"
     << "matches: " << progressive.run.matches.size()
     << ", discovered-by-update: " << progressive.discovered_matches
     << ", evidence-assisted: " << progressive.evidence_assisted_matches
     << "\n";
  return os.str();
}

}  // namespace minoan
