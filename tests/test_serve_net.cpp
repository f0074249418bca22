// TCP front-end: wire framing round-trips (bit-exact floats), malformed /
// truncated / oversized frame handling, and end-to-end serving through a real
// socket — including pipelining and the multi-worker bit-identity contract.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "models/registry.hpp"
#include "serve/model_registry.hpp"
#include "serve/net/client.hpp"
#include "serve/net/listener.hpp"
#include "serve/net/wire.hpp"
#include "serve/server.hpp"
#include "tensor/random.hpp"
#include "util/rng.hpp"

namespace ibrar {
namespace {

namespace net = serve::net;

constexpr std::int64_t kSize = 4;
constexpr std::int64_t kChannels = 3;
constexpr std::int64_t kClasses = 5;

models::TapClassifierPtr tiny_model(std::uint64_t seed) {
  models::ModelSpec spec;
  spec.name = "mlp";
  spec.num_classes = kClasses;
  spec.image_size = kSize;
  spec.in_channels = kChannels;
  Rng rng(seed);
  return models::make_model(spec, rng);
}

Tensor sample_input(std::uint64_t seed) {
  Rng rng(seed);
  return rand_uniform({kChannels, kSize, kSize}, rng, 0.0f, 1.0f);
}

/// Raw loopback connection for protocol-violation tests (the Client helper
/// refuses to send violating frames, so these must go around it).
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// True when the server closed the connection (EOF; no reply bytes).
bool reads_eof(int fd) {
  std::uint8_t byte = 0;
  const ssize_t r = ::recv(fd, &byte, 1, 0);
  return r == 0;
}

// ---- wire framing -----------------------------------------------------------

TEST(Wire, SubmitFrameRoundTripsBitExactly) {
  net::SubmitFrame f;
  f.id = 0xdeadbeefcafe1234ull;
  f.client_id = 0x0123456789abcdefull;
  f.input = sample_input(7);
  const auto bytes = net::encode_submit(f);
  const auto back = net::decode_submit(bytes.data(), bytes.size());
  EXPECT_EQ(back.id, f.id);
  EXPECT_EQ(back.client_id, f.client_id);
  ASSERT_TRUE(back.input.same_shape(f.input));
  EXPECT_EQ(std::memcmp(back.input.data().data(), f.input.data().data(),
                        sizeof(float) *
                            static_cast<std::size_t>(f.input.numel())),
            0);
}

TEST(Wire, ReplyFrameRoundTripsEveryField) {
  net::ReplyFrame f;
  f.id = 42;
  f.status = net::WireStatus::kOk;
  f.model_version = 3;
  f.argmax = 4;
  f.queue_ns = 12345;
  f.compute_ns = 67890;
  f.batch_size = 8;
  f.trigger = 1;
  f.sampled = true;
  f.suspicion = 0.375f;
  f.score_epoch = 2;
  f.cached = true;
  f.retry_after_ms = 1234;
  f.logits = {0.5f, -1.25f, 3.0f, 0.0f, -0.0f};
  const auto bytes = net::encode_reply(f);
  const auto back = net::decode_reply(bytes.data(), bytes.size());
  EXPECT_EQ(back.id, f.id);
  EXPECT_EQ(back.status, f.status);
  EXPECT_EQ(back.model_version, f.model_version);
  EXPECT_EQ(back.argmax, f.argmax);
  EXPECT_EQ(back.queue_ns, f.queue_ns);
  EXPECT_EQ(back.compute_ns, f.compute_ns);
  EXPECT_EQ(back.batch_size, f.batch_size);
  EXPECT_EQ(back.trigger, f.trigger);
  EXPECT_EQ(back.sampled, f.sampled);
  EXPECT_EQ(back.score_epoch, f.score_epoch);
  EXPECT_EQ(back.cached, f.cached);
  EXPECT_EQ(back.retry_after_ms, f.retry_after_ms);
  ASSERT_EQ(back.logits.size(), f.logits.size());
  EXPECT_EQ(std::memcmp(back.logits.data(), f.logits.data(),
                        sizeof(float) * f.logits.size()),
            0);  // bit-exact, including the negative zero
  EXPECT_EQ(std::memcmp(&back.suspicion, &f.suspicion, sizeof(float)), 0);
}

TEST(Wire, StatusMappingMirrorsReplyStatus) {
  EXPECT_EQ(net::to_wire(serve::ReplyStatus::kOk), net::WireStatus::kOk);
  EXPECT_EQ(net::to_wire(serve::ReplyStatus::kRejectedShutdown),
            net::WireStatus::kRejectedShutdown);
  EXPECT_EQ(net::to_wire(serve::ReplyStatus::kRejectedStaleShape),
            net::WireStatus::kRejectedStaleShape);
  EXPECT_EQ(net::to_wire(serve::ReplyStatus::kBusyRetryAfter),
            net::WireStatus::kBusyRetryAfter);
}

TEST(Wire, UnassignedStatusCodesAreRejected) {
  net::ReplyFrame rf;
  rf.logits = {1.0f};
  auto bytes = net::encode_reply(rf);
  constexpr std::size_t kStatusByte = 1 + sizeof(std::uint64_t);  // type, id
  ASSERT_EQ(bytes[kStatusByte], 0u);  // kOk
  // Code 1 (the retired hint-less queue-full) is a gap in the code space:
  // it must fail like any code past the last status, not decode into an
  // enum value no WireStatus names.
  for (int code = 0; code < 256; ++code) {
    bytes[kStatusByte] = static_cast<std::uint8_t>(code);
    if (code == 0 || (code >= 2 && code <= 5)) {
      EXPECT_EQ(static_cast<int>(
                    net::decode_reply(bytes.data(), bytes.size()).status),
                code);
    } else {
      EXPECT_THROW(net::decode_reply(bytes.data(), bytes.size()),
                   std::runtime_error)
          << "status byte " << code;
    }
  }
}

TEST(Wire, TruncatedPayloadsThrowAtEveryPrefixLength) {
  net::SubmitFrame sf;
  sf.id = 9;
  sf.input = sample_input(1);
  const auto submit_bytes = net::encode_submit(sf);
  for (std::size_t n = 0; n < submit_bytes.size(); n += 7) {
    EXPECT_THROW(net::decode_submit(submit_bytes.data(), n),
                 std::runtime_error)
        << "prefix length " << n;
  }
  net::ReplyFrame rf;
  rf.logits = {1.0f, 2.0f};
  const auto reply_bytes = net::encode_reply(rf);
  for (std::size_t n = 0; n < reply_bytes.size(); n += 5) {
    EXPECT_THROW(net::decode_reply(reply_bytes.data(), n), std::runtime_error)
        << "prefix length " << n;
  }
}

TEST(Wire, TrailingBytesAndWrongTypeAreRejected) {
  net::SubmitFrame sf;
  sf.input = sample_input(2);
  auto bytes = net::encode_submit(sf);
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(net::decode_submit(padded.data(), padded.size()),
               std::runtime_error);
  EXPECT_THROW(net::decode_reply(bytes.data(), bytes.size()),
               std::runtime_error);  // submit frame fed to the reply decoder
  bytes[0] = 99;                     // unknown frame type
  EXPECT_THROW(net::decode_submit(bytes.data(), bytes.size()),
               std::runtime_error);
}

// ---- end-to-end through a real socket ---------------------------------------

struct Frontend {
  serve::ModelRegistry reg;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<net::TcpFrontend> tcp;

  // Defaults come from the environment so CI can force the worker fan-out
  // on for this whole suite (IBRAR_SERVE_WORKERS=4 under ASan/UBSan).
  explicit Frontend(serve::ServeConfig cfg = serve::ServeConfig::from_env()) {
    reg.publish(tiny_model(1), {kChannels, kSize, kSize}, "v1");
    server = std::make_unique<serve::Server>(reg, cfg);
    tcp = std::make_unique<net::TcpFrontend>(*server);
  }
};

TEST(TcpFrontend, LogitsThroughTheSocketBitIdenticalToInProcess) {
  Frontend fe;
  const Tensor x = sample_input(11);
  const serve::Reply direct = fe.server->submit(x).get();
  net::Client client("127.0.0.1", fe.tcp->port());
  const auto wire = client.submit(x);
  EXPECT_TRUE(wire.ok());
  EXPECT_EQ(wire.model_version, 1u);
  EXPECT_EQ(wire.argmax, direct.argmax);
  ASSERT_EQ(static_cast<std::int64_t>(wire.logits.size()),
            direct.logits.numel());
  EXPECT_EQ(std::memcmp(wire.logits.data(), direct.logits.data().data(),
                        sizeof(float) * wire.logits.size()),
            0);
}

TEST(TcpFrontend, PipelinedRepliesComeBackInSubmissionOrder) {
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.deadline_us = 500;
  cfg.workers = 2;
  Frontend fe(cfg);
  net::Client client("127.0.0.1", fe.tcp->port());
  const int n = 24;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(client.send(sample_input(static_cast<std::uint64_t>(i))));
  }
  for (int i = 0; i < n; ++i) {
    const auto reply = client.recv();
    EXPECT_EQ(reply.id, ids[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(reply.ok());
  }
}

TEST(TcpFrontend, MultiWorkerSocketServingMatchesSingleWorkerBits) {
  const int n = 16;
  std::vector<Tensor> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(sample_input(700 + static_cast<std::uint64_t>(i)));
  }
  std::vector<std::vector<float>> reference(static_cast<std::size_t>(n));
  {
    Frontend fe;  // defaults: one worker, telemetry off
    net::Client client("127.0.0.1", fe.tcp->port());
    for (int i = 0; i < n; ++i) {
      reference[static_cast<std::size_t>(i)] =
          client.submit(inputs[static_cast<std::size_t>(i)]).logits;
    }
  }
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.deadline_us = 1000;
  cfg.workers = 4;
  cfg.telemetry.sample_every = 2;
  cfg.telemetry.window = 4;
  Frontend fe(cfg);
  net::Client client("127.0.0.1", fe.tcp->port());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(client.send(inputs[static_cast<std::size_t>(i)]));
  }
  for (int i = 0; i < n; ++i) {
    const auto reply = client.recv();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.id, ids[static_cast<std::size_t>(i)]);
    const auto& ref = reference[static_cast<std::size_t>(i)];
    ASSERT_EQ(reply.logits.size(), ref.size());
    EXPECT_EQ(std::memcmp(reply.logits.data(), ref.data(),
                          sizeof(float) * ref.size()),
              0)
        << "socket logits differ for request " << i;
  }
}

TEST(TcpFrontend, BadShapeGetsBadRequestWithoutTeardown) {
  Frontend fe;
  net::Client client("127.0.0.1", fe.tcp->port());
  Rng rng(3);
  const auto bad =
      client.submit(rand_uniform({kChannels, kSize + 1, kSize + 1}, rng));
  EXPECT_EQ(bad.status, net::WireStatus::kBadRequest);
  // The connection survived: a well-shaped request on the SAME socket works.
  const auto good = client.submit(sample_input(5));
  EXPECT_TRUE(good.ok());
}

TEST(TcpFrontend, OversizedLengthPrefixDropsTheConnection) {
  Frontend fe;
  const int fd = raw_connect(fe.tcp->port());
  const std::uint32_t huge = net::kMaxFrameBytes + 1;
  ASSERT_EQ(::send(fd, &huge, sizeof huge, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof huge));
  EXPECT_TRUE(reads_eof(fd));  // no reply, no crash: connection dropped
  ::close(fd);
  // The server itself is unharmed.
  net::Client client("127.0.0.1", fe.tcp->port());
  EXPECT_TRUE(client.submit(sample_input(8)).ok());
}

TEST(TcpFrontend, MalformedPayloadDropsTheConnection) {
  Frontend fe;
  const int fd = raw_connect(fe.tcp->port());
  // Well-framed garbage: length prefix is honest, payload type is junk.
  const std::uint32_t len = 16;
  std::uint8_t junk[16];
  std::memset(junk, 0xab, sizeof junk);
  ASSERT_EQ(::send(fd, &len, sizeof len, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof len));
  ASSERT_EQ(::send(fd, junk, sizeof junk, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof junk));
  EXPECT_TRUE(reads_eof(fd));
  ::close(fd);
  net::Client client("127.0.0.1", fe.tcp->port());
  EXPECT_TRUE(client.submit(sample_input(9)).ok());
}

// ---- fault injection: cache + admission through the socket ------------------

TEST(TcpFrontend, LeaderDisconnectMidFlightJoinerStillGetsTheReply) {
  // The leader's CONNECTION dies while its request is parked in batch
  // assembly; the joiner on a separate connection must still be served the
  // fan-out (the listener never cancels in-flight server work on reader EOF).
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.deadline_us = 300000;  // park the leader's batch for up to 300 ms
  cfg.workers = 1;
  cfg.cache_bytes = std::size_t{16} << 20;
  Frontend fe(cfg);
  const Tensor x = sample_input(21);
  auto leader =
      std::make_unique<net::Client>("127.0.0.1", fe.tcp->port(), 1);
  leader->send(x);
  // Give the leader's frame time to land in the cache as the in-flight entry.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  net::Client joiner("127.0.0.1", fe.tcp->port(), 2);
  const std::uint64_t jid = joiner.send(x);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  leader.reset();  // hang up mid-flight, before the batch deadline fires
  const auto reply = joiner.recv();
  EXPECT_EQ(reply.id, jid);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.cached);  // served by the leader's fan-out
  // Bit identity: an in-process resubmit hits the now-complete entry.
  const serve::Reply direct = fe.server->submit(x).get();
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(static_cast<std::int64_t>(reply.logits.size()),
            direct.logits.numel());
  EXPECT_EQ(std::memcmp(reply.logits.data(), direct.logits.data().data(),
                        sizeof(float) * reply.logits.size()),
            0);
  EXPECT_GE(fe.server->stats().counters.at("serve.cache.inflight_joins"), 1u);
}

TEST(TcpFrontend, DuplicateClientIdSharesOneBucketAcrossConnections) {
  // Fairness is keyed by the client id IN THE FRAME, not by the connection:
  // a client reconnecting (or opening parallel sockets) cannot mint fresh
  // tokens by presenting the same id twice.
  serve::ServeConfig cfg;
  cfg.client_rate = 0.001;  // effectively no refill inside the test
  cfg.client_burst = 2;
  Frontend fe(cfg);
  net::Client a1("127.0.0.1", fe.tcp->port(), 7);
  EXPECT_TRUE(a1.submit(sample_input(31)).ok());
  EXPECT_TRUE(a1.submit(sample_input(32)).ok());
  net::Client a2("127.0.0.1", fe.tcp->port(), 7);  // same id, new socket
  const auto busy = a2.submit(sample_input(33));
  EXPECT_EQ(busy.status, net::WireStatus::kBusyRetryAfter);
  EXPECT_GE(busy.retry_after_ms, 1u);
  EXPECT_LE(busy.retry_after_ms, 5000u);
  net::Client b("127.0.0.1", fe.tcp->port(), 8);  // different id: fresh bucket
  EXPECT_TRUE(b.submit(sample_input(34)).ok());
}

TEST(TcpFrontend, BusyRetryAfterRoundTripsWithItsHint) {
  serve::ServeConfig cfg;
  cfg.client_rate = 0.001;
  cfg.client_burst = 1;
  Frontend fe(cfg);
  net::Client client("127.0.0.1", fe.tcp->port(), 9);
  EXPECT_TRUE(client.submit(sample_input(41)).ok());
  const auto busy = client.submit(sample_input(42));
  EXPECT_EQ(busy.status, net::WireStatus::kBusyRetryAfter);
  EXPECT_FALSE(busy.cached);
  EXPECT_TRUE(busy.logits.empty());
  EXPECT_GE(busy.retry_after_ms, 1u);
  EXPECT_LE(busy.retry_after_ms, 5000u);
  // honor_retry_after: the client retries (bounded sleeps) and, with no
  // refill coming, surfaces the final busy instead of hanging.
  net::Client retrier("127.0.0.1", fe.tcp->port(), 10);
  retrier.honor_retry_after(/*max_attempts=*/3, /*max_sleep_ms=*/2);
  EXPECT_TRUE(retrier.submit(sample_input(43)).ok());
  const auto exhausted = retrier.submit(sample_input(44));
  EXPECT_EQ(exhausted.status, net::WireStatus::kBusyRetryAfter);
  EXPECT_EQ(fe.server->stats().counters.at("serve.admission.throttled"),
            4u);  // 1 + 3 attempts
}

TEST(TcpFrontend, OversizedDimsInSubmitFrameDropTheConnection) {
  // An honest length prefix around a submit frame claiming a 2^20-wide image:
  // the decoder's dimension guard must tear the connection down before any
  // allocation happens.
  Frontend fe;
  const int fd = raw_connect(fe.tcp->port());
  std::vector<std::uint8_t> payload;
  auto put32 = [&payload](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      payload.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  auto put64 = [&payload](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      payload.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  payload.push_back(net::kFrameSubmit);
  put64(1);                 // request id
  put64(7);                 // client id
  put32(3);                 // C
  put32(1u << 20);          // H: beyond the 2^16 plausibility cap
  put32(4);                 // W
  const auto len = static_cast<std::uint32_t>(payload.size());
  ASSERT_EQ(::send(fd, &len, sizeof len, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof len));
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(payload.size()));
  EXPECT_TRUE(reads_eof(fd));
  ::close(fd);
  net::Client client("127.0.0.1", fe.tcp->port());
  EXPECT_TRUE(client.submit(sample_input(12)).ok());
}

TEST(TcpFrontend, TruncatedFrameThenHangupIsHandled) {
  Frontend fe;
  const int fd = raw_connect(fe.tcp->port());
  // Claim 1000 payload bytes, deliver 10, hang up mid-frame.
  const std::uint32_t len = 1000;
  std::uint8_t partial[10] = {};
  ASSERT_EQ(::send(fd, &len, sizeof len, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof len));
  ASSERT_EQ(::send(fd, partial, sizeof partial, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof partial));
  ::close(fd);
  net::Client client("127.0.0.1", fe.tcp->port());
  EXPECT_TRUE(client.submit(sample_input(10)).ok());
}

}  // namespace
}  // namespace ibrar
