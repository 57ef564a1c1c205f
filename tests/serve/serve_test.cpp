// serve::Server over real loopback TCP: the daemon's acceptance
// properties, exercised with serve::Client and (where the client is
// deliberately too well-behaved) a raw socket:
//   * a remote solve answers exactly what the local api answers;
//   * sweep -> resweep chains through SweepResponse::probes;
//   * the per-tenant quota sheds with OVERLOADED under pipelined load
//     while a second tenant's traffic is still admitted (fairness);
//   * a version-mismatch Hello is refused in the handshake;
//   * a CRC-corrupt frame costs one ErrorResponse, not the connection;
//   * a request sent before the handshake closes the connection;
//   * the built-problem memo: a repeated request is a hit answered
//     bit-identically, tenants never share entries, every ProblemSpec
//     field is part of the key, rejected specs are never stored, and an
//     evicted spec is rebuilt and still answered correctly;
//   * a DAG header claiming billions of tasks, or an INCREMENTAL step
//     asking for billions of speed levels, is rejected at once;
//   * a reliability sweep outside [fmin, fmax] is rejected before
//     admission and never memoized.
// The whole file must run clean under check.sh --tsan: responses are
// encoded on engine worker threads while the poll loop owns the sockets.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "model/reliability.hpp"
#include "sched/list_scheduler.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace easched::serve {
namespace {

/// A reproducible wire problem plus its locally-built equivalent.
struct TestProblem {
  ProblemSpec spec;
  core::BiCritProblem local;
};

TestProblem make_problem(std::uint64_t seed, int tasks, double slack) {
  common::Rng rng(seed);
  auto dag = graph::make_random_dag(tasks, 0.2, {1.0, 4.0}, rng);
  const int processors = 3;
  auto mapping = sched::list_schedule(dag, processors,
                                      sched::PriorityPolicy::kCriticalPath);
  std::vector<double> d(static_cast<std::size_t>(dag.num_tasks()));
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    d[static_cast<std::size_t>(t)] = dag.weight(t);
  }
  const double deadline =
      graph::time_analysis(mapping.augmented_graph(dag), d, 0.0).makespan * slack;
  ProblemSpec spec;
  spec.dag_text = graph::to_text(dag);
  spec.processors = processors;
  spec.fmin = 0.1;
  spec.fmax = 1.0;
  spec.deadline = deadline;
  core::BiCritProblem local(dag, mapping, model::SpeedModel::continuous(0.1, 1.0),
                            deadline);
  return {std::move(spec), std::move(local)};
}

/// What the local api answers for `spec` built the way the daemon builds
/// it: the critical-path list-scheduled mapping.
common::Result<api::SolveReport> solve_locally(const ProblemSpec& spec) {
  auto dag = graph::from_text(spec.dag_text);
  if (!dag.is_ok()) return dag.status();
  try {
    const model::SpeedModel speeds = [&] {
      switch (spec.speed_kind) {
        case model::SpeedModelKind::kDiscrete:
          return model::SpeedModel::discrete(spec.levels);
        case model::SpeedModelKind::kVddHopping:
          return model::SpeedModel::vdd_hopping(spec.levels);
        case model::SpeedModelKind::kIncremental:
          return model::SpeedModel::incremental(spec.fmin, spec.fmax, spec.delta);
        case model::SpeedModelKind::kContinuous:
        default:
          return model::SpeedModel::continuous(spec.fmin, spec.fmax);
      }
    }();
    const auto mapping = sched::list_schedule(dag.value(), spec.processors,
                                              sched::PriorityPolicy::kCriticalPath);
    if (spec.tricrit) {
      const model::ReliabilityModel rel(spec.lambda0, spec.dexp, speeds.fmin(),
                                        speeds.fmax(), spec.frel);
      return api::solve(
          core::TriCritProblem(dag.value(), mapping, speeds, rel, spec.deadline));
    }
    return api::solve(core::BiCritProblem(dag.value(), mapping, speeds, spec.deadline));
  } catch (const std::exception& e) {
    return common::Status::invalid(e.what());
  }
}

/// The daemon's answer equals the local one bit for bit (or fails alike).
void expect_matches_local(const SolveResponse& remote, const ProblemSpec& spec) {
  const auto local = solve_locally(spec);
  if (!local.is_ok()) {
    EXPECT_EQ(remote.status.code(), local.status().code()) << remote.status.to_string();
    return;
  }
  ASSERT_TRUE(remote.status.is_ok()) << remote.status.to_string();
  EXPECT_EQ(remote.energy, local.value().energy);
  EXPECT_EQ(remote.makespan, local.value().makespan);
  EXPECT_EQ(remote.solver, local.value().solver);
}

/// A per-tenant problem-memo counter from the daemon's metric registry.
std::uint64_t memo_counter(engine::Engine& engine, const std::string& which,
                           const std::string& tenant) {
  return engine.metrics()
      ->counter("easched_serve_problem_memo_" + which + "_total", {{"tenant", tenant}})
      ->value();
}

/// An Engine + running Server on an ephemeral loopback port. Heap-held:
/// the Server captures the Engine's address, so the Engine must never
/// move after create(). Members declared engine-first so the Server (and
/// its loop thread) is destroyed before the Engine it points into.
struct Daemon {
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<Server> server;

  static Daemon start(engine::EngineConfig econfig, ServerConfig sconfig) {
    Daemon daemon;
    auto created = engine::Engine::create(std::move(econfig));
    EXPECT_TRUE(created.is_ok()) << created.status().to_string();
    daemon.engine =
        std::make_unique<engine::Engine>(std::move(created).take());
    auto server = Server::create(daemon.engine.get(), std::move(sconfig));
    EXPECT_TRUE(server.is_ok()) << server.status().to_string();
    daemon.server = std::make_unique<Server>(std::move(server).take());
    EXPECT_TRUE(daemon.server->start().is_ok());
    return daemon;
  }
};

// ---- raw-socket helpers (for traffic serve::Client refuses to send) ----

int connect_raw(int port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo("127.0.0.1", port_str.c_str(), &hints, &resolved) != 0) return -1;
  const int fd = ::socket(resolved->ai_family, resolved->ai_socktype, 0);
  if (fd >= 0 && ::connect(fd, resolved->ai_addr, resolved->ai_addrlen) != 0) {
    ::close(fd);
    ::freeaddrinfo(resolved);
    return -1;
  }
  ::freeaddrinfo(resolved);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// Blocks until the decoder yields one frame; fails the test on EOF.
Frame read_frame(int fd, FrameDecoder& decoder) {
  Frame frame;
  for (;;) {
    const auto result = decoder.next(frame);
    if (result == FrameDecoder::Result::kFrame) return frame;
    EXPECT_EQ(result, FrameDecoder::Result::kNeedMore);
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      ADD_FAILURE() << "connection closed while waiting for a frame";
      return frame;
    }
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
}

/// Completes a well-formed version-1 handshake on a raw socket.
void handshake_raw(int fd, FrameDecoder& decoder, const std::string& tenant) {
  Hello hello;
  hello.tenant = tenant;
  send_all(fd, encode_frame(MsgType::kHello, hello.encode()));
  const Frame ack_frame = read_frame(fd, decoder);
  ASSERT_EQ(ack_frame.type, MsgType::kHelloAck);
  auto ack = HelloAck::decode(ack_frame.payload);
  ASSERT_TRUE(ack.is_ok());
  ASSERT_TRUE(ack.value().status.is_ok()) << ack.value().status.to_string();
}

TEST(Serve, RemoteSolveMatchesLocalApi) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(21, 10, 1.6);

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "tenant-a");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  SolveRequest request;
  request.problem = problem.spec;
  auto response = client.value().solve(std::move(request));
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  ASSERT_TRUE(response.value().status.is_ok()) << response.value().status.to_string();

  const auto local = api::solve(problem.local);
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(response.value().energy, local.value().energy);
  EXPECT_EQ(response.value().makespan, local.value().makespan);
  EXPECT_EQ(response.value().solver, local.value().solver);

  // The daemon's stat view attributes the request to this tenant.
  auto stat = client.value().stat();
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat.value().tenant_accepted, 1u);
  EXPECT_EQ(stat.value().tenant_completed, 1u);
  EXPECT_EQ(stat.value().tenant_shed, 0u);
  EXPECT_GE(stat.value().threads, 1u);

  // A structurally bad problem comes back as a typed failure response,
  // not a dropped connection.
  SolveRequest bad;
  bad.problem = problem.spec;
  bad.problem.dag_text = "not a dag";
  auto bad_response = client.value().solve(std::move(bad));
  ASSERT_TRUE(bad_response.is_ok()) << bad_response.status().to_string();
  EXPECT_EQ(bad_response.value().status.code(), common::StatusCode::kInvalidArgument);

  daemon.server->stop();
}

TEST(Serve, SweepThenResweepChainsThroughProbes) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(22, 10, 1.8);

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "tenant-a");
  ASSERT_TRUE(client.is_ok());

  SweepRequest sweep;
  sweep.problem = problem.spec;
  sweep.axis = WireAxis::kDeadline;
  sweep.lo = problem.spec.deadline * 0.5;
  sweep.hi = problem.spec.deadline;
  sweep.initial_points = 5;
  sweep.max_points = 11;
  auto first = client.value().sweep(sweep);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  ASSERT_TRUE(first.value().status.is_ok()) << first.value().status.to_string();
  EXPECT_FALSE(first.value().points.empty());
  EXPECT_FALSE(first.value().probes.empty());

  // Resweep warm-started from the first response's probe trace: the
  // returned curve must be bit-identical, with the probes prefetched.
  SweepRequest again = sweep;
  again.request_id = 0;  // let the client assign a fresh id
  again.prev_probes = first.value().probes;
  auto second = client.value().sweep(std::move(again));
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  ASSERT_TRUE(second.value().status.is_ok());
  ASSERT_EQ(second.value().points.size(), first.value().points.size());
  for (std::size_t i = 0; i < first.value().points.size(); ++i) {
    EXPECT_EQ(second.value().points[i].constraint, first.value().points[i].constraint);
    EXPECT_EQ(second.value().points[i].energy, first.value().points[i].energy);
    EXPECT_EQ(second.value().points[i].solver, first.value().points[i].solver);
  }

  daemon.server->stop();
}

TEST(Serve, TenantQuotaShedsWhileOtherTenantIsServed) {
  engine::EngineConfig econfig;
  econfig.threads = 1;  // one worker: the sweep holds it while solves pile up
  ServerConfig sconfig;
  sconfig.tenant_quota = 1;
  auto daemon = Daemon::start(std::move(econfig), std::move(sconfig));

  const auto slow = make_problem(23, 16, 1.7);
  const auto quick = make_problem(24, 8, 1.6);

  auto hog = Client::connect("127.0.0.1", daemon.server->port(), "hog");
  auto polite = Client::connect("127.0.0.1", daemon.server->port(), "polite");
  ASSERT_TRUE(hog.is_ok());
  ASSERT_TRUE(polite.is_ok());

  // The hog pipelines a sweep (fills its quota of 1) and then four solves
  // without waiting: the daemon processes the frames in arrival order, so
  // every solve hits the quota while the sweep is still in flight.
  SweepRequest sweep;
  sweep.request_id = hog.value().next_request_id();
  sweep.problem = slow.spec;
  sweep.axis = WireAxis::kDeadline;
  sweep.lo = slow.spec.deadline * 0.5;
  sweep.hi = slow.spec.deadline;
  sweep.initial_points = 9;
  sweep.max_points = 33;
  ASSERT_TRUE(hog.value().send(sweep).is_ok());

  std::vector<std::uint64_t> shed_ids;
  for (int i = 0; i < 4; ++i) {
    SolveRequest request;
    request.request_id = hog.value().next_request_id();
    request.problem = quick.spec;
    ASSERT_TRUE(hog.value().send(request).is_ok());
    shed_ids.push_back(request.request_id);
  }

  // The other tenant's quota is its own: its solve is admitted and
  // served (queued behind the sweep on the single worker, but never shed).
  SolveRequest polite_request;
  polite_request.problem = quick.spec;
  auto polite_response = polite.value().solve(std::move(polite_request));
  ASSERT_TRUE(polite_response.is_ok()) << polite_response.status().to_string();
  EXPECT_TRUE(polite_response.value().status.is_ok())
      << polite_response.value().status.to_string();

  std::size_t shed = 0;
  for (const auto id : shed_ids) {
    auto response = hog.value().wait_solve(id);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    if (response.value().status.code() == common::StatusCode::kOverloaded) ++shed;
  }
  EXPECT_EQ(shed, shed_ids.size());  // every over-quota request was shed

  auto swept = hog.value().wait_sweep(sweep.request_id);
  ASSERT_TRUE(swept.is_ok()) << swept.status().to_string();
  EXPECT_TRUE(swept.value().status.is_ok()) << swept.value().status.to_string();

  auto stat = hog.value().stat();
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat.value().tenant_shed, shed_ids.size());
  EXPECT_EQ(stat.value().tenant_accepted, 1u);

  // The daemon-wide view aggregates both tenants: the hog's four shed
  // requests, and accepted = hog sweep + polite solve (+ the stat itself).
  const ServerStats totals = daemon.server->stats();
  EXPECT_EQ(totals.shed, shed_ids.size());
  EXPECT_GE(totals.accepted, 2u);
  EXPECT_EQ(totals.deadline_exceeded, 0u);

  daemon.server->stop();
}

TEST(Serve, DeadlineExceededIsCountedPerTenant) {
  engine::EngineConfig econfig;
  econfig.threads = 1;  // one worker: the sweep holds it past the solve deadline
  auto daemon = Daemon::start(std::move(econfig), {});

  const auto slow = make_problem(25, 16, 1.7);
  const auto quick = make_problem(26, 8, 1.6);

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "deadliner");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  // Pipeline a sweep to occupy the single worker, then a solve whose job
  // deadline is effectively already expired: by the time the worker picks
  // it up the deadline has passed, so it completes without solving.
  SweepRequest sweep;
  sweep.request_id = client.value().next_request_id();
  sweep.problem = slow.spec;
  sweep.axis = WireAxis::kDeadline;
  sweep.lo = slow.spec.deadline * 0.5;
  sweep.hi = slow.spec.deadline;
  sweep.initial_points = 9;
  sweep.max_points = 33;
  ASSERT_TRUE(client.value().send(sweep).is_ok());

  SolveRequest doomed;
  doomed.request_id = client.value().next_request_id();
  doomed.problem = quick.spec;
  doomed.job_deadline_ms = 1e-6;
  ASSERT_TRUE(client.value().send(doomed).is_ok());

  auto doomed_response = client.value().wait_solve(doomed.request_id);
  ASSERT_TRUE(doomed_response.is_ok()) << doomed_response.status().to_string();
  EXPECT_EQ(doomed_response.value().status.code(),
            common::StatusCode::kDeadlineExceeded);

  auto swept = client.value().wait_sweep(sweep.request_id);
  ASSERT_TRUE(swept.is_ok());
  EXPECT_TRUE(swept.value().status.is_ok()) << swept.value().status.to_string();

  // The expiry is attributed to this tenant in its stat view and to the
  // daemon's lifetime totals — distinctly from sheds (the job was
  // admitted; it expired, it was not rejected).
  auto stat = client.value().stat();
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat.value().tenant_deadline_exceeded, 1u);
  EXPECT_EQ(stat.value().tenant_shed, 0u);
  EXPECT_EQ(stat.value().tenant_accepted, 2u);

  const ServerStats totals = daemon.server->stats();
  EXPECT_EQ(totals.deadline_exceeded, 1u);
  EXPECT_EQ(totals.shed, 0u);

  daemon.server->stop();
}

TEST(Serve, MetricsScrapeOverLoopback) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(27, 8, 1.6);

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "scraper");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  SolveRequest request;
  request.problem = problem.spec;
  ASSERT_TRUE(client.value().solve(std::move(request)).is_ok());

  // Text scrape: the per-tenant serve counters and the engine's job
  // metrics land in one exposition document. The scrape is itself a
  // request and is counted before serialization, so it sees itself:
  // requests = solve + this scrape.
  auto text = client.value().metrics(MetricsFormat::kText);
  ASSERT_TRUE(text.is_ok()) << text.status().to_string();
  EXPECT_EQ(text.value().format, MetricsFormat::kText);
  const std::string& body = text.value().body;
  EXPECT_NE(body.find("easched_serve_requests_total{tenant=\"scraper\"} 2"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("easched_serve_accepted_total{tenant=\"scraper\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("easched_serve_latency_ms_count{tenant=\"scraper\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("easched_jobs_completed_total{kind=\"solve\",outcome=\"ok\"} 1"),
            std::string::npos);

  // JSON scrape of the same registry.
  auto json = client.value().metrics(MetricsFormat::kJson);
  ASSERT_TRUE(json.is_ok()) << json.status().to_string();
  EXPECT_EQ(json.value().format, MetricsFormat::kJson);
  EXPECT_EQ(json.value().body.rfind("{\"metrics\": [", 0), 0u);
  EXPECT_NE(json.value().body.find("\"name\": \"easched_serve_requests_total\""),
            std::string::npos);

  // Counters are monotone across scrapes: solve + text + json + this one.
  auto again = client.value().metrics(MetricsFormat::kText);
  ASSERT_TRUE(again.is_ok());
  EXPECT_NE(again.value().body.find("easched_serve_requests_total{tenant=\"scraper\"} 4"),
            std::string::npos)
      << again.value().body;

  daemon.server->stop();
}

TEST(Serve, MetricsScrapeOnDisabledDaemonIsUnsupported) {
  engine::EngineConfig econfig;
  econfig.metrics = false;
  auto daemon = Daemon::start(std::move(econfig), {});
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "scraper");
  ASSERT_TRUE(client.is_ok());
  // The refusal is a typed status on the response, surfaced through the
  // client's Result — the connection stays healthy for normal traffic.
  auto scrape = client.value().metrics();
  ASSERT_FALSE(scrape.is_ok());
  EXPECT_EQ(scrape.status().code(), common::StatusCode::kUnsupported);
  auto stat = client.value().stat();
  EXPECT_TRUE(stat.is_ok()) << stat.status().to_string();
  daemon.server->stop();
}

TEST(Serve, VersionMismatchIsRefusedInHandshake) {
  auto daemon = Daemon::start({}, {});
  const int fd = connect_raw(daemon.server->port());
  ASSERT_GE(fd, 0);

  Hello hello;
  hello.version = kProtocolVersion + 1;
  hello.tenant = "future";
  send_all(fd, encode_frame(MsgType::kHello, hello.encode()));

  FrameDecoder decoder;
  const Frame frame = read_frame(fd, decoder);
  ASSERT_EQ(frame.type, MsgType::kHelloAck);
  auto ack = HelloAck::decode(frame.payload);
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack.value().version, kProtocolVersion);  // what the daemon speaks
  EXPECT_EQ(ack.value().status.code(), common::StatusCode::kUnsupported);

  // The daemon closes after the refusal.
  char buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
  daemon.server->stop();
}

TEST(Serve, CorruptFrameCostsOneErrorNotTheConnection) {
  auto daemon = Daemon::start({}, {});
  const int fd = connect_raw(daemon.server->port());
  ASSERT_GE(fd, 0);
  FrameDecoder decoder;
  handshake_raw(fd, decoder, "raw");

  StatRequest request;
  request.request_id = 6;
  std::string corrupt = encode_frame(MsgType::kStatRequest, request.encode());
  corrupt[corrupt.size() - 5] ^= 0x20;  // break the CRC
  send_all(fd, corrupt);
  send_all(fd, encode_frame(MsgType::kStatRequest, request.encode()));

  // One ErrorResponse for the corrupt frame (unattributable: id 0)...
  const Frame error_frame = read_frame(fd, decoder);
  ASSERT_EQ(error_frame.type, MsgType::kError);
  auto error = ErrorResponse::decode(error_frame.payload);
  ASSERT_TRUE(error.is_ok());
  EXPECT_EQ(error.value().request_id, 0u);
  EXPECT_FALSE(error.value().status.is_ok());

  // ...and the intact frame behind it is still served on the same
  // connection: the corrupt frame's declared length delimited it.
  const Frame stat_frame = read_frame(fd, decoder);
  ASSERT_EQ(stat_frame.type, MsgType::kStatResponse);
  auto stat = StatResponse::decode(stat_frame.payload);
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat.value().request_id, 6u);

  ::close(fd);
  daemon.server->stop();
}

TEST(Serve, RequestBeforeHandshakeClosesConnection) {
  auto daemon = Daemon::start({}, {});
  const int fd = connect_raw(daemon.server->port());
  ASSERT_GE(fd, 0);

  StatRequest request;
  request.request_id = 1;
  send_all(fd, encode_frame(MsgType::kStatRequest, request.encode()));

  FrameDecoder decoder;
  const Frame frame = read_frame(fd, decoder);
  ASSERT_EQ(frame.type, MsgType::kError);
  char buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // daemon hung up
  ::close(fd);
  daemon.server->stop();
}

TEST(Serve, EmptyTenantIsRejectedClientSide) {
  auto daemon = Daemon::start({}, {});
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "");
  EXPECT_FALSE(client.is_ok());
  daemon.server->stop();
}

TEST(Serve, RepeatedSolveIsAMemoHitAndBitIdentical) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(31, 10, 1.6);
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "memo");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  SolveRequest request;
  request.problem = problem.spec;
  auto first = client.value().solve(request);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, 1u);
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 0u);

  // The solver name is not part of the key: naming the solver the first
  // request auto-selected reuses the built problem.
  request.solver = first.value().solver;
  auto second = client.value().solve(request);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  const ServerStats stats = daemon.server->stats();
  EXPECT_EQ(stats.problem_memo_misses, 1u);
  EXPECT_EQ(stats.problem_memo_hits, 1u);
  EXPECT_EQ(stats.problem_memo_evictions, 0u);
  EXPECT_EQ(memo_counter(*daemon.engine, "hits", "memo"), 1u);
  EXPECT_EQ(memo_counter(*daemon.engine, "misses", "memo"), 1u);

  expect_matches_local(first.value(), problem.spec);
  EXPECT_EQ(second.value().status.code(), first.value().status.code());
  EXPECT_EQ(second.value().energy, first.value().energy);
  EXPECT_EQ(second.value().makespan, first.value().makespan);
  EXPECT_EQ(second.value().solver, first.value().solver);
  daemon.server->stop();
}

TEST(Serve, ProblemMemoIsScopedPerTenant) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(32, 8, 1.6);
  auto a = Client::connect("127.0.0.1", daemon.server->port(), "tenant-a");
  auto b = Client::connect("127.0.0.1", daemon.server->port(), "tenant-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());

  // Identical bytes from two tenants build two entries.
  SolveRequest request;
  request.problem = problem.spec;
  for (auto* client : {&a.value(), &b.value()}) {
    auto response = client->solve(request);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    expect_matches_local(response.value(), problem.spec);
  }
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, 2u);
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 0u);
  EXPECT_EQ(memo_counter(*daemon.engine, "misses", "tenant-a"), 1u);
  EXPECT_EQ(memo_counter(*daemon.engine, "misses", "tenant-b"), 1u);

  // ...and each tenant then hits its own.
  for (auto* client : {&a.value(), &b.value()}) {
    auto response = client->solve(request);
    ASSERT_TRUE(response.is_ok());
    expect_matches_local(response.value(), problem.spec);
  }
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 2u);
  EXPECT_EQ(memo_counter(*daemon.engine, "hits", "tenant-a"), 1u);
  EXPECT_EQ(memo_counter(*daemon.engine, "hits", "tenant-b"), 1u);
  daemon.server->stop();
}

TEST(Serve, ProblemMemoKeyCoversEverySpecField) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(33, 7, 2.5);
  ProblemSpec base = problem.spec;
  base.fmin = 0.2;
  base.delta = 0.1;
  base.levels = {0.2, 0.5, 0.8, 1.0};
  base.tricrit = true;
  base.frel = 0.8;

  const std::string heavier_dag = [&] {
    auto dag = graph::from_text(base.dag_text).take();
    dag.set_weight(0, dag.weight(0) * 2.0);
    return graph::to_text(dag);
  }();
  const std::vector<std::pair<std::string, std::function<void(ProblemSpec&)>>> variants = {
      {"dag_text", [&](ProblemSpec& s) { s.dag_text = heavier_dag; }},
      {"processors", [](ProblemSpec& s) { s.processors = 2; }},
      {"speed_kind", [](ProblemSpec& s) { s.speed_kind = model::SpeedModelKind::kVddHopping; }},
      {"fmin", [](ProblemSpec& s) { s.fmin = 0.25; }},
      {"fmax", [](ProblemSpec& s) { s.fmax = 0.95; }},
      {"delta", [](ProblemSpec& s) { s.delta = 0.05; }},
      {"levels", [](ProblemSpec& s) { s.levels = {0.2, 0.6, 1.0}; }},
      {"deadline",
       [](ProblemSpec& s) {
         s.deadline = std::nextafter(s.deadline, std::numeric_limits<double>::infinity());
       }},
      {"tricrit", [](ProblemSpec& s) { s.tricrit = false; }},
      {"lambda0", [](ProblemSpec& s) { s.lambda0 = 2e-5; }},
      {"dexp", [](ProblemSpec& s) { s.dexp = 2.5; }},
      {"frel", [](ProblemSpec& s) { s.frel = 0.7; }},
  };

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "fields");
  ASSERT_TRUE(client.is_ok());
  SolveRequest request;
  request.problem = base;
  auto first = client.value().solve(request);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  expect_matches_local(first.value(), base);

  std::uint64_t misses = 1;
  for (const auto& [field, change] : variants) {
    SCOPED_TRACE("changed field: " + field);
    request.problem = base;
    change(request.problem);
    auto response = client.value().solve(request);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    ++misses;
    EXPECT_EQ(daemon.server->stats().problem_memo_misses, misses);
    EXPECT_EQ(daemon.server->stats().problem_memo_hits, 0u);
    expect_matches_local(response.value(), request.problem);
  }

  // The untouched spec still hits its own entry.
  request.problem = base;
  auto again = client.value().solve(request);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 1u);
  EXPECT_EQ(again.value().energy, first.value().energy);
  daemon.server->stop();
}

TEST(Serve, DeadlineAndReliabilitySweepsGetSeparateEntries) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(34, 6, 2.0);
  ProblemSpec spec = problem.spec;
  spec.fmin = 0.2;
  spec.tricrit = true;
  spec.frel = 0.8;

  SweepRequest by_deadline;
  by_deadline.problem = spec;
  by_deadline.axis = WireAxis::kDeadline;
  by_deadline.lo = spec.deadline * 0.6;
  by_deadline.hi = spec.deadline;
  by_deadline.initial_points = 3;
  by_deadline.max_points = 5;
  SweepRequest by_reliability = by_deadline;
  by_reliability.axis = WireAxis::kReliability;
  by_reliability.lo = 0.5;
  by_reliability.hi = 0.9;

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "sweeper");
  ASSERT_TRUE(client.is_ok());
  std::vector<SweepResponse> firsts;
  for (const SweepRequest* sweep : {&by_deadline, &by_reliability}) {
    auto response = client.value().sweep(*sweep);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    ASSERT_TRUE(response.value().status.is_ok()) << response.value().status.to_string();
    firsts.push_back(std::move(response).take());
  }
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, 2u);
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 0u);

  // Each sweep hits its own entry and returns the same curve; the sweep
  // range below the axis maximum is not part of the key.
  for (std::size_t i = 0; i < 2; ++i) {
    SweepRequest again = i == 0 ? by_deadline : by_reliability;
    again.lo *= 1.1;
    auto response = client.value().sweep(again);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    ASSERT_TRUE(response.value().status.is_ok());
    EXPECT_EQ(response.value().axis, firsts[i].axis);
  }
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 2u);
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    auto response = client.value().sweep(i == 0 ? by_deadline : by_reliability);
    ASSERT_TRUE(response.is_ok());
    ASSERT_EQ(response.value().points.size(), firsts[i].points.size());
    for (std::size_t p = 0; p < firsts[i].points.size(); ++p) {
      EXPECT_EQ(response.value().points[p].constraint, firsts[i].points[p].constraint);
      EXPECT_EQ(response.value().points[p].energy, firsts[i].points[p].energy);
      EXPECT_EQ(response.value().points[p].solver, firsts[i].points[p].solver);
    }
  }
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 4u);

  // The deadline sweep anchors at its axis maximum, so a solve at that
  // deadline is the same problem and shares the deadline sweep's entry.
  SolveRequest solve;
  solve.problem = spec;
  auto solved = client.value().solve(solve);
  ASSERT_TRUE(solved.is_ok());
  expect_matches_local(solved.value(), spec);
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 5u);
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, 2u);

  // A deadline sweep to another axis maximum is another problem.
  SweepRequest shorter = by_deadline;
  shorter.hi = spec.deadline * 0.9;
  auto swept = client.value().sweep(shorter);
  ASSERT_TRUE(swept.is_ok());
  EXPECT_TRUE(swept.value().status.is_ok()) << swept.value().status.to_string();
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, 3u);
  daemon.server->stop();
}

TEST(Serve, RejectionTextCarriesNoSourcePath) {
  auto daemon = Daemon::start({}, {});
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "paths");
  ASSERT_TRUE(client.is_ok());
  SolveRequest request;
  request.problem = make_problem(12, 8, 1.6).spec;
  request.problem.fmin = 2.0;  // above fmax: a model precondition fails
  auto response = client.value().solve(request);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  const common::Status& status = response.value().status;
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("fmin"), std::string::npos) << status.message();
  EXPECT_EQ(status.message().find(".cpp:"), std::string::npos) << status.message();
  EXPECT_EQ(status.message().find(".hpp:"), std::string::npos) << status.message();
  daemon.server->stop();
}

TEST(Serve, RejectedSpecIsNeverMemoized) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(35, 8, 1.6);
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "rejects");
  ASSERT_TRUE(client.is_ok());

  ProblemSpec bad_dag = problem.spec;
  bad_dag.dag_text = "dag 2\ntask 0 1 a\ntask 1 1 b\nedge 0 1\nedge 1 0\n";  // a cycle
  ProblemSpec bad_model = problem.spec;
  bad_model.fmin = 2.0;  // above fmax: the speed model refuses it
  for (const ProblemSpec* spec : {&bad_dag, &bad_model, &bad_dag, &bad_model}) {
    SolveRequest request;
    request.problem = *spec;
    auto response = client.value().solve(request);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    EXPECT_EQ(response.value().status.code(), common::StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, 4u);
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 0u);

  // The connection and the memo still work for a valid spec.
  SolveRequest good;
  good.problem = problem.spec;
  for (int i = 0; i < 2; ++i) {
    auto response = client.value().solve(good);
    ASSERT_TRUE(response.is_ok());
    expect_matches_local(response.value(), problem.spec);
  }
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, 5u);
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 1u);
  daemon.server->stop();
}

TEST(Serve, EvictedSpecIsRebuiltAndAnsweredCorrectly) {
  auto daemon = Daemon::start({}, {});
  ProblemSpec base;
  base.dag_text = "dag 3\ntask 0 2 a\ntask 1 3 b\ntask 2 1 c\nedge 0 1\nedge 0 2\n";
  base.processors = 2;
  base.deadline = 10.0;
  auto nth = [&](int i) {
    ProblemSpec spec = base;
    spec.deadline += 0.01 * i;
    return spec;
  };

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "wide");
  ASSERT_TRUE(client.is_ok());
  // Distinct specs, pipelined in batches, until the entry cap evicts.
  constexpr int kBatch = 64;
  constexpr int kMaxSpecs = 8192;
  int sent = 0;
  while (daemon.server->stats().problem_memo_evictions == 0 && sent < kMaxSpecs) {
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < kBatch; ++i, ++sent) {
      SolveRequest request;
      request.request_id = client.value().next_request_id();
      request.problem = nth(sent);
      ASSERT_TRUE(client.value().send(request).is_ok());
      ids.push_back(request.request_id);
    }
    for (const auto id : ids) {
      auto response = client.value().wait_solve(id);
      ASSERT_TRUE(response.is_ok()) << response.status().to_string();
      ASSERT_TRUE(response.value().status.is_ok()) << response.value().status.to_string();
    }
  }
  const ServerStats filled = daemon.server->stats();
  ASSERT_GT(filled.problem_memo_evictions, 0u) << "no eviction after " << sent << " specs";
  EXPECT_EQ(filled.problem_memo_misses, static_cast<std::uint64_t>(sent));
  EXPECT_EQ(filled.problem_memo_hits, 0u);
  EXPECT_EQ(memo_counter(*daemon.engine, "evictions", "wide"), filled.problem_memo_evictions);

  // The newest spec is still memoized; the oldest was evicted first (LRU)
  // and is rebuilt, answering exactly what the local api answers.
  SolveRequest newest;
  newest.problem = nth(sent - 1);
  auto hit = client.value().solve(newest);
  ASSERT_TRUE(hit.is_ok());
  expect_matches_local(hit.value(), newest.problem);
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 1u);

  SolveRequest oldest;
  oldest.problem = nth(0);
  auto rebuilt = client.value().solve(oldest);
  ASSERT_TRUE(rebuilt.is_ok());
  expect_matches_local(rebuilt.value(), oldest.problem);
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 1u);
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, filled.problem_memo_misses + 1);
  daemon.server->stop();
}

TEST(Serve, ProblemMemoKeyByteCapEvicts) {
  auto daemon = Daemon::start({}, {});
  // A one-task DAG with a 5 MiB task name: a cheap problem with a large
  // key, so a handful of distinct deadlines exceeds the key-byte cap long
  // before the entry cap.
  ProblemSpec base;
  base.dag_text = "dag 1\ntask 0 2 " + std::string(5u << 20, 'x') + "\n";
  base.processors = 1;
  base.deadline = 4.0;
  auto nth = [&](int i) {
    ProblemSpec spec = base;
    spec.deadline += i;
    return spec;
  };

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "large");
  ASSERT_TRUE(client.is_ok());
  int sent = 0;
  while (daemon.server->stats().problem_memo_evictions == 0 && sent < 16) {
    SolveRequest request;
    request.problem = nth(sent++);
    auto response = client.value().solve(request);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    ASSERT_TRUE(response.value().status.is_ok()) << response.value().status.to_string();
  }
  ASSERT_EQ(daemon.server->stats().problem_memo_evictions, 1u);
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, static_cast<std::uint64_t>(sent));

  // The oldest entry went first and is rebuilt correctly.
  SolveRequest oldest;
  oldest.problem = nth(0);
  auto rebuilt = client.value().solve(oldest);
  ASSERT_TRUE(rebuilt.is_ok());
  expect_matches_local(rebuilt.value(), oldest.problem);
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 0u);
  daemon.server->stop();
}

TEST(Serve, ProblemMemoChargesBuiltFootprint) {
  auto daemon = Daemon::start({}, {});
  // Short specs whose built problems are large: the byte cap counts what a
  // problem holds, not just its key. 360000 processors build about 8.6 MB
  // of (mostly empty) order lists, so a second such spec evicts the first.
  ProblemSpec base;
  base.dag_text = "dag 3\ntask 0 2 a\ntask 1 3 b\ntask 2 1 c\nedge 0 1\nedge 0 2\n";
  base.processors = 360000;
  base.deadline = 10.0;
  ProblemSpec other = base;
  other.deadline = 11.0;
  // Twice the processors: a problem that alone exceeds the cap.
  ProblemSpec oversize = base;
  oversize.processors = 720000;

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "wide-mapping");
  ASSERT_TRUE(client.is_ok());
  auto solve = [&](const ProblemSpec& spec) {
    SolveRequest request;
    request.problem = spec;
    auto response = client.value().solve(request);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    EXPECT_TRUE(response.value().status.is_ok()) << response.value().status.to_string();
  };
  solve(base);
  EXPECT_EQ(daemon.server->stats().problem_memo_evictions, 0u);
  solve(other);
  EXPECT_EQ(daemon.server->stats().problem_memo_evictions, 1u);
  EXPECT_EQ(memo_counter(*daemon.engine, "evictions", "wide-mapping"), 1u);
  solve(base);  // evicted, so rebuilt (and now `other` is evicted)
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, 3u);
  EXPECT_EQ(daemon.server->stats().problem_memo_evictions, 2u);

  // The oversize problem is never stored, so it evicts nothing.
  solve(oversize);
  solve(oversize);
  const ServerStats stats = daemon.server->stats();
  EXPECT_EQ(stats.problem_memo_misses, 5u);
  EXPECT_EQ(stats.problem_memo_hits, 0u);
  EXPECT_EQ(stats.problem_memo_evictions, 2u);
  solve(base);
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 1u);
  daemon.server->stop();
}

TEST(Serve, ShedRequestIsNotMemoized) {
  engine::EngineConfig econfig;
  econfig.threads = 1;  // one worker: the sweep holds the tenant's only slot
  ServerConfig sconfig;
  sconfig.tenant_quota = 1;
  auto daemon = Daemon::start(std::move(econfig), std::move(sconfig));
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "busy");
  ASSERT_TRUE(client.is_ok());

  // A slow sweep pipelined ahead of a solve of a new spec sheds the solve.
  // Retried with fresh problems should the sweep finish first.
  ProblemSpec shed_spec;
  for (int attempt = 0; attempt < 4 && shed_spec.dag_text.empty(); ++attempt) {
    const auto slow = make_problem(40 + attempt, 16, 1.7);
    const auto quick = make_problem(50 + attempt, 8, 1.6);
    SweepRequest sweep;
    sweep.request_id = client.value().next_request_id();
    sweep.problem = slow.spec;
    sweep.axis = WireAxis::kDeadline;
    sweep.lo = slow.spec.deadline * 0.5;
    sweep.hi = slow.spec.deadline;
    sweep.initial_points = 9;
    sweep.max_points = 33;
    ASSERT_TRUE(client.value().send(sweep).is_ok());
    SolveRequest request;
    request.request_id = client.value().next_request_id();
    request.problem = quick.spec;
    ASSERT_TRUE(client.value().send(request).is_ok());
    auto response = client.value().wait_solve(request.request_id);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    if (response.value().status.code() == common::StatusCode::kOverloaded) {
      shed_spec = quick.spec;
    }
    ASSERT_TRUE(client.value().wait_sweep(sweep.request_id).is_ok());
  }
  ASSERT_FALSE(shed_spec.dag_text.empty()) << "no solve was shed";

  // The shed solve built its problem but did not store it: admitted now,
  // the same spec misses once and then hits.
  const ServerStats before = daemon.server->stats();
  SolveRequest request;
  request.problem = shed_spec;
  for (int i = 0; i < 2; ++i) {
    auto response = client.value().solve(request);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    expect_matches_local(response.value(), shed_spec);
  }
  const ServerStats after = daemon.server->stats();
  EXPECT_EQ(after.problem_memo_misses, before.problem_memo_misses + 1);
  EXPECT_EQ(after.problem_memo_hits, before.problem_memo_hits + 1);
  daemon.server->stop();
}

TEST(Serve, DagHeaderBombIsRejectedQuickly) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(36, 8, 1.6);
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "bomb");
  ASSERT_TRUE(client.is_ok());

  // Thirteen bytes claiming two billion tasks: rejected before the daemon
  // allocates anything for them.
  SolveRequest bomb;
  bomb.problem = problem.spec;
  bomb.problem.dag_text = "dag 2000000000";
  const auto start = std::chrono::steady_clock::now();
  auto rejected = client.value().solve(bomb);
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(rejected.is_ok()) << rejected.status().to_string();
  EXPECT_EQ(rejected.value().status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_LT(ms, 100.0);

  // The same connection then serves a valid solve.
  SolveRequest good;
  good.problem = problem.spec;
  auto response = client.value().solve(good);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  expect_matches_local(response.value(), problem.spec);
  daemon.server->stop();
}

TEST(Serve, TinyIncrementalStepIsRejectedQuickly) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(37, 8, 1.6);
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "steps");
  ASSERT_TRUE(client.is_ok());

  // A short spec asking for 10^9 speed levels, and one whose step cannot
  // change f at all (1 + 1e-20 == 1): both refused before any level is
  // allocated, instead of stalling the poll thread.
  for (const double delta : {1e-9, 1e-20}) {
    SolveRequest request;
    request.problem = problem.spec;
    request.problem.speed_kind = model::SpeedModelKind::kIncremental;
    request.problem.fmin = 1.0;
    request.problem.fmax = 2.0;
    request.problem.delta = delta;
    const auto start = std::chrono::steady_clock::now();
    auto rejected = client.value().solve(request);
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    ASSERT_TRUE(rejected.is_ok()) << rejected.status().to_string();
    EXPECT_EQ(rejected.value().status.code(), common::StatusCode::kInvalidArgument)
        << rejected.value().status.to_string();
    EXPECT_LT(ms, 100.0);
  }

  // The same connection then serves a valid solve.
  SolveRequest good;
  good.problem = problem.spec;
  auto response = client.value().solve(good);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  expect_matches_local(response.value(), problem.spec);
  daemon.server->stop();
}

TEST(Serve, ReliabilitySweepBelowFminIsRejectedBeforeAdmission) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(38, 6, 2.0);
  SweepRequest sweep;
  sweep.problem = problem.spec;
  sweep.problem.fmin = 0.2;
  sweep.problem.tricrit = true;
  sweep.axis = WireAxis::kReliability;
  sweep.lo = 0.1;  // below fmin: no threshold speed there
  sweep.hi = 0.9;
  sweep.initial_points = 3;
  sweep.max_points = 5;

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "below");
  ASSERT_TRUE(client.is_ok());
  for (int i = 0; i < 2; ++i) {
    auto response = client.value().sweep(sweep);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    EXPECT_EQ(response.value().status.code(), common::StatusCode::kInvalidArgument)
        << response.value().status.to_string();
  }
  // Neither attempt was admitted, and neither stored its build: the
  // repeat built the problem again rather than hitting the memo.
  auto stat = client.value().stat();
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat.value().tenant_accepted, 0u);
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, 2u);
  EXPECT_EQ(daemon.server->stats().problem_memo_hits, 0u);

  // The same problem over a range inside [fmin, fmax] is served.
  sweep.lo = 0.5;
  auto served = client.value().sweep(sweep);
  ASSERT_TRUE(served.is_ok()) << served.status().to_string();
  EXPECT_TRUE(served.value().status.is_ok()) << served.value().status.to_string();
  EXPECT_FALSE(served.value().points.empty());
  EXPECT_EQ(daemon.server->stats().problem_memo_misses, 3u);
  daemon.server->stop();
}

}  // namespace
}  // namespace easched::serve
