#include "api/job_metrics.hpp"

namespace deproto::api::detail {

std::vector<std::pair<std::string, double>> result_metrics(
    const ExperimentResult& r) {
  // One allocation per job: the four convergence/population entries, one
  // fraction per state, seven probe/token/message entries, and the four
  // net-only ones.
  std::vector<std::pair<std::string, double>> m;
  m.reserve(11 + r.state_names.size() + (r.net_stats.has_value() ? 4 : 0));
  m.emplace_back("settle_time", r.convergence.settle_time);
  m.emplace_back("dominant_fraction", r.convergence.dominant_fraction);
  m.emplace_back("absorbed", r.convergence.absorbed ? 1.0 : 0.0);
  m.emplace_back("final_alive", static_cast<double>(r.final_alive));
  for (std::size_t s = 0; s < r.state_names.size(); ++s) {
    const double fraction =
        r.final_alive == 0 ? 0.0
                           : static_cast<double>(r.final_counts[s]) /
                                 static_cast<double>(r.final_alive);
    m.emplace_back("final_fraction_" + r.state_names[s], fraction);
  }
  m.emplace_back("probes_total", static_cast<double>(r.probes_total));
  m.emplace_back("tokens_generated", static_cast<double>(r.tokens.generated));
  m.emplace_back("tokens_delivered", static_cast<double>(r.tokens.delivered));
  m.emplace_back("tokens_dropped", static_cast<double>(r.tokens.dropped));
  m.emplace_back("messages_sent", static_cast<double>(r.messages_sent));
  m.emplace_back("messages_dropped",
                 static_cast<double>(r.messages_dropped));
  // Dropped / sent: the event backend's synthetic loss rate and the net
  // backend's measured one land in the same column, so a sweep can put a
  // simulated network next to the real loopback one.
  m.emplace_back("loss_rate",
                 r.messages_sent == 0
                     ? 0.0
                     : static_cast<double>(r.messages_dropped) /
                           static_cast<double>(r.messages_sent));
  if (r.net_stats.has_value()) {
    m.emplace_back("observed_loss", r.net_stats->observed_loss());
    m.emplace_back("rtt_ms_mean", r.net_stats->rtt_ms_mean());
    m.emplace_back("reordered", static_cast<double>(r.net_stats->reordered));
    m.emplace_back("duplicates",
                   static_cast<double>(r.net_stats->duplicates));
  }
  return m;
}

}  // namespace deproto::api::detail
