// Tests for the message wire format, the TCP transport, and the TCP
// edge into a simulated pipeline.
#include <gtest/gtest.h>

#include <atomic>

#include "actyp/scenario.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"
#include "simnet/call_gateway.hpp"

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

// --- TCP edge into the simulated pipeline ---

TEST(TcpEdge, CallsRunThroughTheSimulatedPipeline) {
  ScenarioConfig config;
  config.machines = 64;
  config.clusters = 2;
  config.precreate_pools = false;
  config.clients = 0;
  SimScenario scenario(config);
  simnet::CallGateway gateway(&scenario.network());
  TcpServer server;
  ASSERT_TRUE(server
                  .Start(0,
                         [&gateway](const Message& request) {
                           return gateway.Call("qm0", request);
                         })
                  .ok());

  int allocations = 0;
  for (const char* cluster : {"c0", "c1", "c0"}) {
    Message request{msg::kQuery};
    request.body = std::string("punch.rsrc.cluster = ") + cluster +
                   "\npunch.user.login = demo\n";
    auto reply = TcpClient::Call("127.0.0.1", server.port(), request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, msg::kAllocation) << reply->Header(hdr::kError);
    allocations += reply->type == msg::kAllocation ? 1 : 0;
  }
  server.Stop();  // joins the connection threads that ran the simulation

  EXPECT_EQ(allocations, 3);
  // Each cluster's pool was built on demand, once, and the stages
  // recorded their spans into the scenario's profiler.
  EXPECT_EQ(scenario.proxy_stats().pools_created, 2u);
  EXPECT_EQ(scenario.TotalPoolStats().allocations, 3u);
  EXPECT_EQ(scenario.profiler()->histogram(profile::Stage::kQmAdmit).count(),
            3u);
}

}  // namespace
}  // namespace actyp::net
