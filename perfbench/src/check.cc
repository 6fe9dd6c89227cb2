#include "check.h"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace perfbench {
namespace {

using tcdp::Status;
using tcdp::StatusOr;
using tcdp::server::ShardedReleaseService;
using tcdp::server::UserReport;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Status Query(ShardedReleaseService* service, const Workload& workload,
             std::uint32_t user, Reports* out) {
  TCDP_ASSIGN_OR_RETURN(UserReport report,
                        service->Query(workload.names[user]));
  out->emplace_back(user, std::move(report));
  return Status::OK();
}

}  // namespace

Status Enroll(ShardedReleaseService* service, const Workload& workload) {
  for (std::size_t u = 0; u < workload.initial_users; ++u) {
    TCDP_RETURN_IF_ERROR(service->Join(
        workload.names[u], workload.matrices[workload.user_matrix[u]]));
  }
  return service->Flush();
}

Status FeedLoad(ShardedReleaseService* service, const Workload& workload,
                Reports* load_reports, double* query_seconds) {
  Reports ignored;
  for (const Op& op : workload.load_block) {
    switch (op.kind) {
      case OpKind::kJoin:
        TCDP_RETURN_IF_ERROR(service->Join(
            workload.names[op.user], workload.matrices[workload.user_matrix[op.user]]));
        break;
      case OpKind::kRelease:
        TCDP_RETURN_IF_ERROR(service->Release(workload.names[op.user], op.epsilon));
        break;
      case OpKind::kQuery: {
        const auto start = std::chrono::steady_clock::now();
        TCDP_RETURN_IF_ERROR(Query(service, workload, op.user,
                                   load_reports != nullptr ? load_reports : &ignored));
        if (query_seconds != nullptr) {
          *query_seconds +=
              std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                  .count();
        }
        break;
      }
      case OpKind::kFlush:
        TCDP_RETURN_IF_ERROR(service->Flush());
        break;
    }
  }
  return Status::OK();
}

StatusOr<ReferenceRun> RunReference(const Workload& workload) {
  tcdp::server::ShardedServiceOptions options;
  options.num_shards = 1;
  options.batch_window = workload.batch_window;
  // Series are bitwise invariant to the bank's thread count, and the
  // reference runs while nothing else does.
  options.threads_per_shard = 4;
  TCDP_ASSIGN_OR_RETURN(auto service, ShardedReleaseService::Create("", options));
  ReferenceRun run;
  TCDP_RETURN_IF_ERROR(Enroll(service.get(), workload));
  TCDP_RETURN_IF_ERROR(FeedLoad(service.get(), workload, &run.load_reports, nullptr));
  TCDP_RETURN_IF_ERROR(service->Flush());
  run.horizon = service->horizon();
  for (std::uint32_t user : workload.query_phase) {
    TCDP_RETURN_IF_ERROR(Query(service.get(), workload, user, &run.phase_reports));
  }
  // OverallAlpha() is the max of the personalized alphas.
  TCDP_ASSIGN_OR_RETURN(const auto alphas, service->PersonalizedAlphas());
  for (const auto& entry : alphas) {
    run.overall_alpha = std::max(run.overall_alpha, entry.second);
  }
  std::string top_name;
  for (const auto& [name, alpha] : alphas) {
    if (SameBits(alpha, run.overall_alpha)) {
      top_name = name;
      break;
    }
  }
  if (top_name.empty() || top_name[0] != 'u') {
    return Status::Internal("reference: no user attains the overall alpha");
  }
  run.top_user = static_cast<std::uint32_t>(std::stoul(top_name.substr(1)));
  TCDP_RETURN_IF_ERROR(Query(service.get(), workload, run.top_user, &run.final_reports));
  TCDP_RETURN_IF_ERROR(service->Close());
  return run;
}

std::vector<Op> FinalQueries(const ReferenceRun& reference) {
  return {Op{OpKind::kQuery, reference.top_user, 0.0}};
}

std::vector<std::string> DiffReports(const UserReport& served,
                                     const UserReport& reference) {
  std::vector<std::string> fields;
  if (served.name != reference.name) fields.push_back("name");
  if (served.join_release != reference.join_release) fields.push_back("join_release");
  if (served.horizon != reference.horizon) fields.push_back("horizon");
  if (!SameBits(served.max_tpl, reference.max_tpl)) fields.push_back("max_tpl");
  if (!SameBits(served.user_level_tpl, reference.user_level_tpl)) {
    fields.push_back("user_level_tpl");
  }
  if (!SameBits(served.epsilons, reference.epsilons)) fields.push_back("epsilons");
  if (!SameBits(served.tpl_series, reference.tpl_series)) fields.push_back("tpl_series");
  return fields;
}

std::vector<std::string> CompareReports(const std::string& phase,
                                        const Reports& served,
                                        const Reports& reference) {
  std::vector<std::string> mismatches;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const std::string where =
        phase + " query " + std::to_string(i) + " (user u" +
        std::to_string(reference[i].first) + ")";
    if (i >= served.size() || served[i].first != reference[i].first) {
      mismatches.push_back(where + ": no served answer");
      continue;
    }
    const auto fields = DiffReports(served[i].second, reference[i].second);
    if (fields.empty()) continue;
    std::string joined;
    for (const std::string& field : fields) joined += (joined.empty() ? "" : ",") + field;
    mismatches.push_back(where + ": differs in " + joined);
  }
  if (served.size() > reference.size()) {
    mismatches.push_back(phase + ": " +
                         std::to_string(served.size() - reference.size()) +
                         " unexpected served answers");
  }
  return mismatches;
}

}  // namespace perfbench
