#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <unordered_set>

namespace bouquet {
namespace net {

namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

BouquetServer::BouquetServer(BouquetService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    ins_.connections =
        m->GetCounter("net_connections_total", "Connections accepted");
    ins_.connections_open =
        m->GetGauge("net_connections_open", "Connections currently open");
    ins_.frames = m->GetCounter("net_frames_total", "Frames received");
    ins_.protocol_errors = m->GetCounter(
        "net_protocol_errors_total",
        "Malformed frames/payloads and framing violations from peers");
    ins_.responses =
        m->GetCounter("net_responses_total", "RESULT frames sent");
    ins_.error_responses =
        m->GetCounter("net_error_responses_total", "ERROR frames sent");
    ins_.degraded = m->GetCounter(
        "net_degraded_total",
        "RESULT frames served degraded by the MSO-safe plan");
    ins_.request_latency = m->GetHistogram(
        "net_request_latency_seconds",
        "QUERY arrival to RESULT enqueue (server side)",
        obs::NetLatencyBuckets());
  }
  router_ = std::make_unique<RequestRouter>(
      options_.router,
      [this](const std::string& template_name,
             std::vector<RoutedRequest> batch) {
        // Hop to the service pool; the shared_ptr detour is only because
        // std::function requires copyable callables and batches are
        // move-only (they carry spans).
        auto shared = std::make_shared<std::vector<RoutedRequest>>(
            std::move(batch));
        service_->pool()->Post([this, template_name, shared] {
          ExecuteBatch(template_name, std::move(*shared));
          router_->OnBatchDone();
        });
      },
      [this](RoutedRequest request) { ShedToSafePlan(std::move(request)); },
      options_.metrics);
}

BouquetServer::~BouquetServer() {
  RequestShutdown();
  Wait();
}

Status BouquetServer::RegisterTemplate(const QuerySpec& query) {
  if (query.name.empty()) {
    return Status::InvalidArgument("template has no name");
  }
  WriterMutexLock lock(&registry_mu_);
  registry_[query.name] = query;
  return Status::Ok();
}

bool BouquetServer::LookupTemplate(const std::string& name,
                                   QuerySpec* out) const {
  ReaderMutexLock lock(&registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) return false;
  *out = it->second;
  return true;
}

Status BouquetServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  auto listen_or = ListenLoopback(options_.port, options_.listen_backlog);
  if (!listen_or.ok()) return listen_or.status();
  listen_fd_ = listen_or.value();
  auto port_or = LocalPort(listen_fd_);
  if (!port_or.ok()) return port_or.status();
  port_ = port_or.value();

  const int n = std::max(1, options_.num_reactors);
  for (int i = 0; i < n; ++i) {
    auto reactor = std::make_unique<Reactor>();
    reactor->index = i;
    if (!reactor->loop.ok()) {
      reactors_.clear();
      return Status::Internal("epoll/eventfd creation failed");
    }
    reactors_.push_back(std::move(reactor));
  }
  for (auto& reactor : reactors_) {
    Reactor* r = reactor.get();
    r->thread = std::thread([this, r] { ReactorLoop(*r); });
  }
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  return Status::Ok();
}

void BouquetServer::AcceptorLoop() {
  size_t next = 0;
  while (!stop_accepting_.load(std::memory_order_acquire)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, 100) <= 0) continue;
    for (;;) {
      const int fd =
          accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN and transient errors: back to poll
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Reactor& reactor = *reactors_[next++ % reactors_.size()];
      {
        MutexLock lock(&reactor.mu);
        reactor.pending_accepts.push_back(fd);
      }
      reactor.loop.Wake();
    }
  }
}

void BouquetServer::AdoptPending(Reactor& reactor) {
  std::deque<int> fds;
  {
    MutexLock lock(&reactor.mu);
    fds.swap(reactor.pending_accepts);
  }
  for (int fd : fds) {
    if (reactor.stop.load(std::memory_order_acquire)) {
      close(fd);
      continue;
    }
    const uint64_t id =
        next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>(fd, id, options_.max_payload);
    if (!reactor.loop.Add(fd, EPOLLIN, conn.get()).ok()) {
      continue;  // conn destructor closes the fd
    }
    obs::Span span = obs::Tracer::Begin(options_.tracer, "net.accept");
    span.Num("conn_id", static_cast<double>(id))
        .Num("reactor", static_cast<double>(reactor.index));
    span.End();
    if (ins_.connections != nullptr) ins_.connections->Inc();
    const int open = open_conns_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (ins_.connections_open != nullptr) {
      ins_.connections_open->Set(static_cast<double>(open));
    }
    reactor.conns.emplace(id, std::move(conn));
  }
}

void BouquetServer::DrainOutbox(Reactor& reactor) {
  std::deque<std::pair<uint64_t, std::vector<uint8_t>>> items;
  {
    MutexLock lock(&reactor.mu);
    items.swap(reactor.outbox);
  }
  std::unordered_set<uint64_t> touched;
  for (auto& [id, bytes] : items) {
    auto it = reactor.conns.find(id);
    if (it == reactor.conns.end()) continue;  // peer left before the answer
    it->second->QueueWrite(std::move(bytes));
    touched.insert(id);
  }
  for (uint64_t id : touched) {
    auto it = reactor.conns.find(id);
    if (it == reactor.conns.end()) continue;
    if (it->second->Flush() == Connection::IoResult::kError) {
      CloseConnection(reactor, id);
    } else {
      UpdateWriteInterest(reactor, *it->second);
    }
  }
}

void BouquetServer::UpdateWriteInterest(Reactor& reactor, Connection& conn) {
  const uint32_t events =
      EPOLLIN | (conn.want_write() ? EPOLLOUT : 0u);
  if (!reactor.loop.Mod(conn.fd(), events, &conn).ok()) {
    CloseConnection(reactor, conn.id());
  }
}

void BouquetServer::CloseConnection(Reactor& reactor, uint64_t conn_id) {
  auto it = reactor.conns.find(conn_id);
  if (it == reactor.conns.end()) return;
  reactor.loop.Del(it->second->fd());
  reactor.conns.erase(it);
  const int open = open_conns_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (ins_.connections_open != nullptr) {
    ins_.connections_open->Set(static_cast<double>(open));
  }
}

void BouquetServer::SendNow(Reactor& reactor, Connection& conn,
                            std::vector<uint8_t> bytes) {
  conn.QueueWrite(std::move(bytes));
  if (conn.Flush() == Connection::IoResult::kError) {
    CloseConnection(reactor, conn.id());
    return;
  }
  UpdateWriteInterest(reactor, conn);
}

void BouquetServer::SendError(Reactor& reactor, Connection& conn,
                              uint64_t request_id, WireError code,
                              const std::string& message) {
  ErrorMsg err;
  err.request_id = request_id;
  err.code = static_cast<uint8_t>(code);
  err.message = message;
  if (ins_.error_responses != nullptr) ins_.error_responses->Inc();
  SendNow(reactor, conn, EncodeError(err));
}

void BouquetServer::ReactorLoop(Reactor& reactor) {
  std::vector<ReadyEvent> events;
  while (!reactor.stop.load(std::memory_order_acquire)) {
    AdoptPending(reactor);
    DrainOutbox(reactor);
    events.clear();
    if (reactor.loop.Poll(100, &events) < 0) break;
    for (const ReadyEvent& ev : events) {
      Connection* conn = static_cast<Connection*>(ev.tag);
      if (conn == nullptr) continue;
      const uint64_t id = conn->id();
      bool close_conn = (ev.events & (EPOLLERR | EPOLLHUP)) != 0;
      if (!close_conn && (ev.events & EPOLLIN) != 0) {
        std::vector<Frame> frames;
        const Connection::IoResult res = conn->ReadFrames(&frames);
        for (const Frame& frame : frames) {
          // HandleFrame never closes `conn` itself (SendNow may, on a dead
          // socket); re-check liveness between frames.
          if (reactor.conns.find(id) == reactor.conns.end()) break;
          HandleFrame(reactor, *conn, frame);
        }
        if (reactor.conns.find(id) == reactor.conns.end()) continue;
        if (res == Connection::IoResult::kProtocolError) {
          if (ins_.protocol_errors != nullptr) ins_.protocol_errors->Inc();
          close_conn = true;
        } else if (res != Connection::IoResult::kOk) {
          close_conn = true;
        }
      }
      if (!close_conn && (ev.events & EPOLLOUT) != 0) {
        if (conn->Flush() == Connection::IoResult::kError) {
          close_conn = true;
        } else {
          UpdateWriteInterest(reactor, *conn);
        }
      }
      if (close_conn) CloseConnection(reactor, id);
    }
  }

  // Drain grace: responses already queued (or racing in via the outbox) get
  // up to 500 ms of flush attempts before the sockets close.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  for (;;) {
    AdoptPending(reactor);  // closes stragglers (stop flag is set)
    DrainOutbox(reactor);
    bool pending = false;
    for (auto& [id, conn] : reactor.conns) {
      conn->Flush();
      if (conn->want_write()) pending = true;
    }
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    events.clear();
    reactor.loop.Poll(10, &events);
  }
  const int closed = static_cast<int>(reactor.conns.size());
  for (auto& [id, conn] : reactor.conns) reactor.loop.Del(conn->fd());
  reactor.conns.clear();
  if (closed > 0) {
    const int open =
        open_conns_.fetch_sub(closed, std::memory_order_relaxed) - closed;
    if (ins_.connections_open != nullptr) {
      ins_.connections_open->Set(static_cast<double>(open));
    }
  }
}

void BouquetServer::HandleFrame(Reactor& reactor, Connection& conn,
                                const Frame& frame) {
  if (ins_.frames != nullptr) ins_.frames->Inc();
  switch (static_cast<FrameType>(frame.type)) {
    case FrameType::kHello: {
      HelloMsg hello;
      if (!DecodeHello(frame, &hello).ok()) {
        if (ins_.protocol_errors != nullptr) ins_.protocol_errors->Inc();
        SendError(reactor, conn, 0, WireError::kMalformed, "bad HELLO");
        return;
      }
      HelloMsg ack;
      ack.version = kWireVersion;
      SendNow(reactor, conn, EncodeHello(ack, FrameType::kHelloAck));
      return;
    }
    case FrameType::kQuery:
      HandleQuery(reactor, conn, frame);
      return;
    case FrameType::kMetrics: {
      if (options_.metrics == nullptr) {
        SendError(reactor, conn, 0, WireError::kInternal,
                  "metrics registry not attached");
        return;
      }
      std::string text = options_.metrics->ExportPrometheus();
      const size_t cap = options_.max_payload - 64;
      if (text.size() > cap) text.resize(cap);
      SendNow(reactor, conn, EncodeText(FrameType::kMetricsText, text));
      return;
    }
    case FrameType::kTraceDump: {
      if (options_.tracer == nullptr) {
        SendError(reactor, conn, 0, WireError::kInternal,
                  "tracer not attached");
        return;
      }
      std::ostringstream os;
      options_.tracer->ExportJsonl(os);
      std::string text = os.str();
      const size_t cap = options_.max_payload - 64;
      if (text.size() > cap) {
        // Truncate on a line boundary: every remaining line stays valid
        // JSON for the schema checker.
        const size_t nl = text.rfind('\n', cap);
        text.resize(nl == std::string::npos ? 0 : nl + 1);
      }
      SendNow(reactor, conn, EncodeText(FrameType::kTraceJsonl, text));
      return;
    }
    case FrameType::kShutdown:
      SendNow(reactor, conn, EncodeFrame(FrameType::kGoodbye, {}));
      RequestShutdown();
      return;
    default:
      if (ins_.protocol_errors != nullptr) ins_.protocol_errors->Inc();
      SendError(reactor, conn, 0, WireError::kMalformed,
                "unexpected frame type");
      return;
  }
}

void BouquetServer::HandleQuery(Reactor& reactor, Connection& conn,
                                const Frame& frame) {
  QueryMsg query;
  if (!DecodeQuery(frame, &query).ok()) {
    if (ins_.protocol_errors != nullptr) ins_.protocol_errors->Inc();
    SendError(reactor, conn, 0, WireError::kMalformed, "bad QUERY payload");
    return;
  }
  QuerySpec spec;
  if (!LookupTemplate(query.template_name, &spec)) {
    SendError(reactor, conn, query.request_id, WireError::kUnknownTemplate,
              "template not registered: " + query.template_name);
    return;
  }
  if (static_cast<int>(query.selectivities.size()) != spec.NumDims()) {
    SendError(reactor, conn, query.request_id, WireError::kMalformed,
              "selectivity count does not match template dimensions");
    return;
  }
  for (double s : query.selectivities) {
    if (!std::isfinite(s) || s <= 0.0 || s > 1.0) {
      SendError(reactor, conn, query.request_id, WireError::kMalformed,
                "selectivities must lie in (0, 1]");
      return;
    }
  }

  RoutedRequest request;
  request.arrival = std::chrono::steady_clock::now();
  request.span = obs::Tracer::Begin(options_.tracer, "net.request");
  request.span.Num("tenant", static_cast<double>(query.tenant_id))
      .Str("template", query.template_name);

  const int reactor_index = reactor.index;
  const uint64_t conn_id = conn.id();
  const uint64_t request_id = query.request_id;
  const auto arrival = request.arrival;
  request.query = std::move(query);
  request.respond = [this, reactor_index, conn_id, request_id,
                     arrival](const ResultMsg& msg) {
    ResultMsg out = msg;
    out.request_id = request_id;
    out.server_seconds =
        SecondsBetween(arrival, std::chrono::steady_clock::now());
    if (ins_.responses != nullptr) ins_.responses->Inc();
    if ((out.flags & kResultDegraded) != 0 && ins_.degraded != nullptr) {
      ins_.degraded->Inc();
    }
    if (ins_.request_latency != nullptr) {
      ins_.request_latency->Observe(out.server_seconds);
    }
    SendToConn(reactor_index, conn_id, EncodeResult(out));
  };
  request.fail = [this, reactor_index, conn_id, request_id](
                     WireError code, const std::string& message) {
    ErrorMsg err;
    err.request_id = request_id;
    err.code = static_cast<uint8_t>(code);
    err.message = message;
    if (ins_.error_responses != nullptr) ins_.error_responses->Inc();
    SendToConn(reactor_index, conn_id, EncodeError(err));
  };
  router_->Submit(std::move(request));
}

void BouquetServer::SendToConn(int reactor_index, uint64_t conn_id,
                               std::vector<uint8_t> bytes) {
  if (reactor_index < 0 ||
      reactor_index >= static_cast<int>(reactors_.size())) {
    return;
  }
  Reactor& reactor = *reactors_[reactor_index];
  {
    MutexLock lock(&reactor.mu);
    reactor.outbox.emplace_back(conn_id, std::move(bytes));
  }
  reactor.loop.Wake();
}

void BouquetServer::ExecuteBatch(const std::string& template_name,
                                 std::vector<RoutedRequest> batch) {
  QuerySpec spec;
  if (!LookupTemplate(template_name, &spec)) {
    for (RoutedRequest& req : batch) {
      req.fail(WireError::kUnknownTemplate,
               "template vanished: " + template_name);
    }
    return;
  }
  obs::Span span = obs::Tracer::Begin(options_.tracer, "net.batch");
  span.Num("batch_size", static_cast<double>(batch.size()))
      .Str("template", template_name);

  std::vector<ServiceRequest> requests(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    requests[i].query = spec;
    requests[i].actual_selectivities = batch[i].query.selectivities;
    requests[i].mode = ExecutionMode::kSimulate;
  }
  auto results_or = service_->RunBatch(requests, &span);
  if (!results_or.ok()) {
    span.Flag("failed", true);
    for (RoutedRequest& req : batch) {
      req.fail(WireError::kInternal, results_or.status().message());
    }
    return;
  }
  const std::vector<ServiceResult>& results = results_or.value();
  for (size_t i = 0; i < batch.size(); ++i) {
    const ServiceResult& sr = results[i];
    ResultMsg msg;
    msg.flags = static_cast<uint8_t>(
        (sr.sim.completed ? kResultCompleted : 0) |
        (sr.cache_hit ? kResultCacheHit : 0) |
        (sr.compiled ? kResultCompiled : 0));
    msg.num_executions = static_cast<uint32_t>(sr.sim.num_executions);
    msg.total_cost = sr.sim.total_cost;
    batch[i].span.Flag("batched", true)
        .Num("executions", static_cast<double>(sr.sim.num_executions))
        .Flag("cache_hit", sr.cache_hit);
    batch[i].respond(msg);
  }
}

void BouquetServer::ShedToSafePlan(RoutedRequest request) {
  QuerySpec spec;
  if (!LookupTemplate(request.query.template_name, &spec)) {
    request.fail(WireError::kUnknownTemplate,
                 "template vanished: " + request.query.template_name);
    return;
  }
  ServiceRequest sreq;
  sreq.query = std::move(spec);
  sreq.actual_selectivities = request.query.selectivities;
  sreq.mode = ExecutionMode::kSimulate;
  request.span.Flag("degraded", true);
  auto result_or = service_->RunSafePlan(sreq, &request.span);
  if (!result_or.ok()) {
    request.fail(WireError::kOverloaded,
                 "shed failed: " + result_or.status().message());
    return;
  }
  const ServiceResult& sr = result_or.value();
  ResultMsg msg;
  msg.flags = static_cast<uint8_t>(
      kResultDegraded | (sr.sim.completed ? kResultCompleted : 0) |
      kResultCacheHit);
  msg.num_executions = static_cast<uint32_t>(sr.sim.num_executions);
  msg.total_cost = sr.sim.total_cost;
  request.respond(msg);
}

void BouquetServer::RequestShutdown() {
  {
    MutexLock lock(&state_mu_);
    shutdown_requested_ = true;
  }
  state_cv_.NotifyAll();
}

void BouquetServer::Wait() {
  {
    MutexLock lock(&state_mu_);
    while (!shutdown_requested_) state_cv_.Wait(&state_mu_);
    if (shutdown_done_) return;
    if (teardown_claimed_) {
      while (!shutdown_done_) state_cv_.Wait(&state_mu_);
      return;
    }
    teardown_claimed_ = true;
  }
  DoShutdown();
  {
    MutexLock lock(&state_mu_);
    shutdown_done_ = true;
  }
  state_cv_.NotifyAll();
}

void BouquetServer::DoShutdown() {
  // 1. Stop accepting (new connections are refused once the listener dies).
  stop_accepting_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. Drain the router: already-admitted requests finish (their responses
  //    flow through still-running reactors); new QUERYs get kShuttingDown.
  if (router_ != nullptr) router_->Drain();
  // 3. Stop the reactors; each flushes pending writes (bounded grace) and
  //    closes its connections on the way out.
  for (auto& reactor : reactors_) {
    reactor->stop.store(true, std::memory_order_release);
    reactor->loop.Wake();
  }
  for (auto& reactor : reactors_) {
    if (reactor->thread.joinable()) reactor->thread.join();
  }
  // 4. Final trace export (the in-flight record, not just end-of-process).
  if (options_.tracer != nullptr && !options_.trace_path.empty()) {
    Status exported = options_.tracer->ExportJsonlFile(options_.trace_path);
    MutexLock lock(&state_mu_);
    trace_export_status_ = std::move(exported);
  }
}

Status BouquetServer::trace_export_status() const {
  MutexLock lock(&state_mu_);
  return trace_export_status_;
}

}  // namespace net
}  // namespace bouquet
