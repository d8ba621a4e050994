// Persistent distributed file store (the Section 4.1 application), now as
// a real networked service: a server process keeps one file alive with the
// endemic-replication protocol running over actual UDP loopback sockets
// (net::NetSimulator -- one socket per host), and answers store queries on
// a separate client-facing UDP port woven into the same event loop. Real
// client processes query the store concurrently while replica hosts are
// SIGKILL-style destroyed mid-run; the file must survive both the attack
// and a client being killed without warning.
//
// Modes:
//   ./examples/persistent_store                 self-demo: forks a server
//       and three concurrent clients, SIGKILLs one client mid-run, and
//       verifies the file survived and the surviving clients were served
//   ./examples/persistent_store --serve         run a server (prints
//       "PORT <p>" on stdout; speak the text protocol below to it)
//   ./examples/persistent_store --client <port> run one query client
//
// Query protocol (one text command per datagram):
//   GET <name>  ->  OK <name> replicas=<r> alive=<a>
//   STATS       ->  STATS datagrams=<d> rtt_ms_mean=<m> observed_loss=<l>
//   SHUTDOWN    ->  BYE   (server finishes its minimum horizon and exits)

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/closed_form.hpp"
#include "core/synthesis.hpp"
#include "net/net_sim.hpp"
#include "net/socket.hpp"
#include "ode/catalog.hpp"

namespace {

using namespace deproto;

constexpr std::size_t kHosts = 64;
constexpr std::size_t kStash = 1;  // machine state y = stashing the file
constexpr const char* kFileName = "alpha.dat";
// The eq. (1) rates the store's machine is synthesized from.
constexpr core::EndemicRates kRates{.beta = 8.0, .gamma = 0.1, .alpha = 0.02};

/// The store server: endemic replication over kHosts real UDP sockets,
/// plus one more socket for client queries. Announces "PORT <p>\n" on
/// `announce_fd`, runs at least 60 protocol periods (so the mid-run
/// attack and the recovery after it are both visible), at most 120.
int run_server(int announce_fd) {
  const auto expected = core::endemic_expectation(kHosts, kRates);
  const auto synth = core::synthesize(
      ode::catalog::endemic(kRates.beta, kRates.gamma, kRates.alpha));

  net::NetSimOptions options;
  options.period_ms = 25.0;
  net::NetSimulator store(kHosts, synth.machine, /*seed=*/101, options);
  // Insert: the uploader pushes the file to 8 hosts -- a single initial
  // replica would escape the saddle only w.p. ~ 1 - gamma/(beta*x).
  store.seed_states({kHosts - 8, 8, 0});

  net::UdpSocket query = net::UdpSocket::bind_loopback();
  bool shutdown_requested = false;
  std::uint64_t queries_served = 0;
  store.watch_fd(query.fd(), [&] {
    char buf[256];
    sockaddr_in from{};
    long n;
    while ((n = query.recv_from(buf, sizeof(buf) - 1, &from)) > 0) {
      buf[n] = '\0';
      std::string reply;
      if (std::strncmp(buf, "GET", 3) == 0) {
        reply = std::string("OK ") + kFileName +
                " replicas=" + std::to_string(store.group().count(kStash)) +
                " alive=" + std::to_string(store.total_alive()) + "\n";
      } else if (std::strncmp(buf, "STATS", 5) == 0) {
        const net::NetStats s = store.net_stats();
        reply = "STATS datagrams=" + std::to_string(s.datagrams_sent) +
                " rtt_ms_mean=" + std::to_string(s.rtt_ms_mean()) +
                " observed_loss=" + std::to_string(s.observed_loss()) + "\n";
      } else if (std::strncmp(buf, "SHUTDOWN", 8) == 0) {
        shutdown_requested = true;
        reply = "BYE\n";
      } else {
        reply = "ERR unknown command\n";
      }
      query.send_to(from, reply.data(), reply.size());
      ++queries_served;
    }
  });

  const std::string hello = "PORT " + std::to_string(query.port()) + "\n";
  if (write(announce_fd, hello.data(), hello.size()) < 0) return 1;

  std::printf("server: %s on %zu UDP hosts, query port %u\n"
              "server: analytic equilibrium: %.0f receptive, %.0f "
              "stashers, %.0f averse\n",
              kFileName, kHosts, query.port(), expected.receptives,
              expected.stashers, expected.averse);

  bool attacked = false;
  for (int period = 1;
       period <= 120 && !(shutdown_requested && period >= 60); ++period) {
    store.run_for(1.0);
    if (!attacked && period >= 40) {
      // Targeted attack: snapshot the replica set and SIGKILL six of its
      // hosts -- sockets close with no goodbye, peers see silence.
      attacked = true;
      std::size_t killed = 0;
      for (const sim::ProcessId pid : store.group().members(kStash)) {
        if (killed == 6) break;
        store.kill_node(pid);
        ++killed;
      }
      std::printf("server: attack destroyed %zu replica hosts "
                  "(replicas now %zu, alive %zu)\n",
                  killed, store.group().count(kStash), store.total_alive());
    }
  }

  const std::size_t replicas = store.group().count(kStash);
  const net::NetStats stats = store.net_stats();
  const auto rc = core::reality_check(kHosts, kRates, 6.0, 88.2);
  std::printf("server: %s %s with %zu replicas on %zu alive hosts\n"
              "server: %llu datagrams, rtt mean %.3f ms, %llu client "
              "queries served\n"
              "server: per-host bandwidth at equilibrium: %.2e bps "
              "(6-minute periods, 88.2 KB files)\n",
              kFileName, replicas > 0 ? "survives" : "LOST", replicas,
              store.total_alive(),
              static_cast<unsigned long long>(stats.datagrams_sent),
              stats.rtt_ms_mean(),
              static_cast<unsigned long long>(queries_served),
              rc.bandwidth_bps);
  return replicas > 0 && queries_served > 0 ? 0 : 1;
}

/// One query client: fires GET (and an occasional STATS) at the store,
/// waits up to 500 ms per reply. Succeeds when most queries are answered
/// and the file was seen replicated.
int run_client(std::uint16_t port, int id, std::size_t num_queries) {
  net::UdpSocket sock = net::UdpSocket::bind_loopback();
  const sockaddr_in server = net::loopback_endpoint(port);
  std::size_t answered = 0;
  bool saw_replicas = false;
  for (std::size_t i = 0; i < num_queries; ++i) {
    const std::string cmd =
        i % 8 == 7 ? "STATS" : std::string("GET ") + kFileName;
    sock.send_to(server, cmd.data(), cmd.size());
    std::vector<pollfd> fds = {{sock.fd(), POLLIN, 0}};
    if (net::poll_sockets(fds, 500) > 0) {
      char buf[256];
      const long n = sock.recv_from(buf, sizeof(buf) - 1);
      if (n > 0) {
        buf[n] = '\0';
        ++answered;
        const char* r = std::strstr(buf, "replicas=");
        if (r != nullptr && std::atoi(r + 9) > 0) saw_replicas = true;
      }
    }
    usleep(20000);  // ~20 ms between queries
  }
  std::printf("client %d: %zu/%zu queries answered, file %s\n", id,
              answered, num_queries,
              saw_replicas ? "replicated" : "NOT SEEN");
  return answered >= num_queries / 2 && saw_replicas ? 0 : 1;
}

/// Self-demo: server + three concurrent client processes, one of which is
/// SIGKILLed mid-run (the store must not care).
int run_demo(const char* self) {
  int port_pipe[2];
  if (pipe(port_pipe) != 0) return 1;

  std::fflush(stdout);  // children inherit the buffer; keep it empty
  const pid_t server_pid = fork();
  if (server_pid == 0) {
    close(port_pipe[0]);
    const int rc = run_server(port_pipe[1]);
    std::fflush(stdout);  // _exit skips stdio flushing
    _exit(rc);
  }
  close(port_pipe[1]);

  char line[64] = {};
  std::size_t got = 0;
  while (got < sizeof(line) - 1) {
    const ssize_t n = read(port_pipe[0], line + got, sizeof(line) - 1 - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
    if (std::strchr(line, '\n') != nullptr) break;
  }
  close(port_pipe[0]);
  unsigned port = 0;
  if (std::sscanf(line, "PORT %u", &port) != 1 || port == 0) {
    std::fprintf(stderr, "%s: server failed to announce a port\n", self);
    kill(server_pid, SIGKILL);
    return 1;
  }
  std::printf("demo: store is serving on UDP port %u\n", port);
  std::fflush(stdout);

  pid_t clients[3];
  for (int id = 0; id < 3; ++id) {
    clients[id] = fork();
    if (clients[id] == 0) {
      const int rc = run_client(static_cast<std::uint16_t>(port), id, 24);
      std::fflush(stdout);
      _exit(rc);
    }
  }

  // The crash drill: client 2 dies without warning a quarter second in.
  usleep(250000);
  kill(clients[2], SIGKILL);
  std::printf("demo: SIGKILLed client 2 mid-run\n");

  bool ok = true;
  for (int id = 0; id < 2; ++id) {
    int status = 0;
    waitpid(clients[id], &status, 0);
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  waitpid(clients[2], nullptr, 0);  // killed; exit status irrelevant

  // Ask the server to wind down, then collect its verdict.
  {
    net::UdpSocket sock = net::UdpSocket::bind_loopback();
    const char kBye[] = "SHUTDOWN";
    sock.send_to(net::loopback_endpoint(static_cast<std::uint16_t>(port)),
                 kBye, sizeof(kBye) - 1);
  }
  int status = 0;
  waitpid(server_pid, &status, 0);
  ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;

  std::printf("demo: %s\n", ok ? "file served and survived" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--serve") == 0) {
    return run_server(/*announce_fd=*/1);
  }
  if (argc >= 3 && std::strcmp(argv[1], "--client") == 0) {
    return run_client(static_cast<std::uint16_t>(std::atoi(argv[2])),
                      /*id=*/0, /*num_queries=*/24);
  }
  return run_demo(argv[0]);
}
