// Tests for the message wire format, the threaded in-process transport,
// and the TCP transport.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.hpp"
#include "net/inproc.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"

namespace actyp::net {
namespace {

// --- wire format ---

TEST(Message, EncodeDecodeRoundTrip) {
  Message m{"query"};
  m.SetHeader("reply-to", "client3");
  m.SetHeader("request-id", "42");
  m.body = "punch.rsrc.arch = sun\n";
  auto round = Message::Decode(m.Encode());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->type, "query");
  EXPECT_EQ(round->Header("reply-to"), "client3");
  EXPECT_EQ(round->Header("request-id"), "42");
  EXPECT_EQ(round->body, m.body);
}

TEST(Message, EmptyBodyAndHeaders) {
  Message m{"tick"};
  auto round = Message::Decode(m.Encode());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->type, "tick");
  EXPECT_TRUE(round->body.empty());
  EXPECT_TRUE(round->headers.empty());
}

TEST(Message, BodyMayContainBlankLines) {
  Message m{"query"};
  m.body = "line1\n\nline3\n\n\n";
  auto round = Message::Decode(m.Encode());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->body, m.body);
}

TEST(Message, DecodeRejectsGarbage) {
  EXPECT_FALSE(Message::Decode("").ok());
  EXPECT_FALSE(Message::Decode("HTTP/1.1 200\n\n").ok());
  EXPECT_FALSE(Message::Decode("ACTYP/1 query\nbadheader\n\n").ok());
  EXPECT_FALSE(Message::Decode("ACTYP/1 \ncontent-length: 0\n\n").ok());
  // Missing content-length.
  EXPECT_FALSE(Message::Decode("ACTYP/1 query\n\n").ok());
  // Truncated body.
  EXPECT_FALSE(Message::Decode("ACTYP/1 q\ncontent-length: 10\n\nabc").ok());
}

TEST(Message, HeaderAccessors) {
  Message m{"x"};
  EXPECT_EQ(m.Header("nope"), "");
  EXPECT_FALSE(m.HasHeader("nope"));
  m.SetHeader("k", "v");
  EXPECT_TRUE(m.HasHeader("k"));
}

class MessageFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MessageFuzz, RandomRoundTrip) {
  Rng rng(900 + GetParam());
  Message m{"t" + std::to_string(rng.NextBounded(100))};
  const int headers = static_cast<int>(rng.NextBounded(6));
  for (int i = 0; i < headers; ++i) {
    m.SetHeader("h" + std::to_string(i),
                "value-" + std::to_string(rng.Next() % 9973));
  }
  const std::size_t body_len = rng.NextBounded(2000);
  m.body.reserve(body_len);
  for (std::size_t i = 0; i < body_len; ++i) {
    m.body += static_cast<char>(32 + rng.NextBounded(95));
  }
  auto round = Message::Decode(m.Encode());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->type, m.type);
  EXPECT_EQ(round->headers, m.headers);
  EXPECT_EQ(round->body, m.body);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, MessageFuzz, ::testing::Range(0, 20));

// --- in-process transport ---

class EchoNode final : public Node {
 public:
  void OnMessage(const Envelope& env, NodeContext& ctx) override {
    if (env.message.type == "ping") {
      Message reply{"pong"};
      reply.body = env.message.body;
      ctx.Send(env.from, std::move(reply));
    }
  }
};

class CollectorNode final : public Node {
 public:
  void OnMessage(const Envelope& env, NodeContext&) override {
    std::lock_guard<std::mutex> lock(mu_);
    received_.push_back(env.message.type + ":" + env.message.body);
    ++count_;
  }
  std::vector<std::string> received() {
    std::lock_guard<std::mutex> lock(mu_);
    return received_;
  }
  int count() {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> received_;
  int count_ = 0;
};

void WaitFor(const std::function<bool()>& cond, int timeout_ms = 3000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(cond()) << "condition not met within timeout";
}

TEST(InProc, RequestReply) {
  InProcNetwork network;
  auto echo = std::make_shared<EchoNode>();
  auto sink = std::make_shared<CollectorNode>();
  ASSERT_TRUE(network.AddNode("echo", echo, {}).ok());
  ASSERT_TRUE(network.AddNode("sink", sink, {}).ok());

  Message ping{"ping"};
  ping.body = "hello";
  network.Post("sink", "echo", std::move(ping));
  WaitFor([&] { return sink->count() == 1; });
  EXPECT_EQ(sink->received()[0], "pong:hello");
}

TEST(InProc, DuplicateAddressRejected) {
  InProcNetwork network;
  ASSERT_TRUE(network.AddNode("a", std::make_shared<EchoNode>(), {}).ok());
  EXPECT_FALSE(network.AddNode("a", std::make_shared<EchoNode>(), {}).ok());
  EXPECT_TRUE(network.HasNode("a"));
  EXPECT_FALSE(network.HasNode("b"));
}

TEST(InProc, RemoveNodeStopsDelivery) {
  InProcNetwork network;
  auto sink = std::make_shared<CollectorNode>();
  ASSERT_TRUE(network.AddNode("sink", sink, {}).ok());
  network.Post("x", "sink", Message{"m"});
  WaitFor([&] { return sink->count() == 1; });
  ASSERT_TRUE(network.RemoveNode("sink").ok());
  EXPECT_FALSE(network.RemoveNode("sink").ok());
  network.Post("x", "sink", Message{"m"});  // silently dropped
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(sink->count(), 1);
}

TEST(InProc, LatencyDelaysDelivery) {
  InProcConfig config;
  config.latency = [](const Address&, const Address&) { return Millis(60); };
  InProcNetwork network(config);
  auto sink = std::make_shared<CollectorNode>();
  ASSERT_TRUE(network.AddNode("sink", sink, {}).ok());

  const auto start = std::chrono::steady_clock::now();
  network.Post("x", "sink", Message{"m"});
  WaitFor([&] { return sink->count() == 1; });
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 50);
}

class SelfSchedulingNode final : public Node {
 public:
  void OnStart(NodeContext& ctx) override {
    ctx.ScheduleSelf(Millis(10), Message{"tick"});
  }
  void OnMessage(const Envelope& env, NodeContext& ctx) override {
    if (env.message.type != "tick") return;
    const int n = ++ticks_;
    if (n < 3) ctx.ScheduleSelf(Millis(10), Message{"tick"});
  }
  std::atomic<int> ticks_{0};
};

TEST(InProc, ScheduleSelfFiresRepeatedly) {
  InProcNetwork network;
  auto node = std::make_shared<SelfSchedulingNode>();
  ASSERT_TRUE(network.AddNode("timer", node, {}).ok());
  WaitFor([&] { return node->ticks_.load() == 3; });
}

// Destroying a network right after constructing it races the scheduler
// thread's first wait: a shutdown notify that lands between its stop
// check and its wait must still wake it, or the destructor's join hangs.
// 10,000 networks are enough to hit that window every time (4-vCPU x86
// VM) when the stop flag is set outside the scheduler's lock.
TEST(InProc, ImmediateShutdownNeverHangs) {
  for (int i = 0; i < 10000; ++i) {
    InProcNetwork network;
  }
}

TEST(InProc, ParallelServersProcessConcurrently) {
  InProcNetwork network;
  class SlowNode final : public Node {
   public:
    void OnMessage(const Envelope& env, NodeContext& ctx) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ctx.Send(env.from, Message{"done"});
    }
  };
  auto slow = std::make_shared<SlowNode>();
  auto sink = std::make_shared<CollectorNode>();
  NodePlacement placement;
  placement.servers = 4;
  ASSERT_TRUE(network.AddNode("slow", slow, placement).ok());
  ASSERT_TRUE(network.AddNode("sink", sink, {}).ok());

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) network.Post("sink", "slow", Message{"go"});
  WaitFor([&] { return sink->count() == 4; });
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  // Serial execution would need >= 200ms; allow generous slack.
  EXPECT_LT(elapsed, 160);
}

// --- TCP transport ---

TEST(Tcp, CallRoundTrip) {
  TcpServer server;
  ASSERT_TRUE(server
                  .Start(0,
                         [](const Message& request) {
                           Message reply{"reply"};
                           reply.body = "echo:" + request.body;
                           reply.SetHeader("seen-type", request.type);
                           return reply;
                         })
                  .ok());
  ASSERT_GT(server.port(), 0);

  Message request{"query"};
  request.body = "punch.rsrc.arch = sun\n";
  auto reply = TcpClient::Call("127.0.0.1", server.port(), request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, "reply");
  EXPECT_EQ(reply->body, "echo:punch.rsrc.arch = sun\n");
  EXPECT_EQ(reply->Header("seen-type"), "query");
  server.Stop();
}

TEST(Tcp, MultipleSequentialCalls) {
  TcpServer server;
  std::atomic<int> served{0};
  ASSERT_TRUE(server
                  .Start(0,
                         [&served](const Message& request) {
                           ++served;
                           Message reply{"ok"};
                           reply.body = request.Header("n");
                           return reply;
                         })
                  .ok());
  for (int i = 0; i < 8; ++i) {
    Message request{"q"};
    request.SetHeader("n", std::to_string(i));
    auto reply = TcpClient::Call("127.0.0.1", server.port(), request);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->body, std::to_string(i));
  }
  EXPECT_EQ(served.load(), 8);
  server.Stop();
}

TEST(Tcp, LargeBody) {
  TcpServer server;
  ASSERT_TRUE(
      server.Start(0, [](const Message& request) { return request; }).ok());
  Message request{"big"};
  request.body.assign(1 << 20, 'x');  // 1 MiB
  auto reply = TcpClient::Call("127.0.0.1", server.port(), request);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->body.size(), request.body.size());
  server.Stop();
}

TEST(Tcp, ConnectFailureReported) {
  // Port 1 is essentially never listening.
  auto reply = TcpClient::Call("127.0.0.1", 1, Message{"q"});
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

TEST(Tcp, BadHostRejected) {
  auto reply = TcpClient::Call("not-an-ip", 80, Message{"q"});
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
}

TEST(Tcp, InjectedResetFailsCallAndRetryRecovers) {
  TcpServer server;
  // Reset the very first reply, deliver everything after.
  std::atomic<int> replies{0};
  server.SetFaultHook([&replies]() -> TcpFault {
    TcpFault fault;
    if (replies.fetch_add(1) == 0) fault.action = TcpFault::Action::kReset;
    return fault;
  });
  ASSERT_TRUE(server
                  .Start(0,
                         [](const Message& request) {
                           Message reply{"reply"};
                           reply.body = request.body;
                           return reply;
                         })
                  .ok());

  Message request{"query"};
  request.body = "hello\n";
  // Single-shot call eats the reset...
  auto failed = TcpClient::Call("127.0.0.1", server.port(), request);
  EXPECT_FALSE(failed.ok());
  // ...the retrying client reconnects and lands the reply.
  auto reply =
      TcpClient::CallWithRetry("127.0.0.1", server.port(), request, 2);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->body, "hello\n");
  server.Stop();
}

TEST(Tcp, InjectedPartialFrameFailsCallAndRetryRecovers) {
  TcpServer server;
  // Truncate the first reply after 3 bytes of its frame body.
  std::atomic<int> replies{0};
  server.SetFaultHook([&replies]() -> TcpFault {
    TcpFault fault;
    if (replies.fetch_add(1) == 0) {
      fault.action = TcpFault::Action::kTruncate;
      fault.bytes = 3;
    }
    return fault;
  });
  ASSERT_TRUE(server
                  .Start(0,
                         [](const Message& request) {
                           Message reply{"reply"};
                           reply.body = request.body;
                           return reply;
                         })
                  .ok());

  Message request{"query"};
  request.body = "partial-frame-check\n";
  auto failed = TcpClient::Call("127.0.0.1", server.port(), request);
  EXPECT_FALSE(failed.ok());  // frame starved mid-message
  auto reply =
      TcpClient::CallWithRetry("127.0.0.1", server.port(), request, 2);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->body, "partial-frame-check\n");
  server.Stop();
}

}  // namespace
}  // namespace actyp::net
