// Integration tests for the `stap serve` daemon: real sockets, real
// threads. Covers the binary protocol end to end (validate / included /
// approx / ping / reload), concurrent clients, snapshot hot-swap under
// live traffic, hostile framing (malformed, truncated, oversized),
// overload shedding, per-request budget exhaustion, the HTTP metrics
// surface, and the 32-client cold-schema compile stampede whose
// exactly-once guarantee is asserted through the cache.insert counter.
//
// Also holds the regression tests for the batch-validation budget fix
// (post-parse tree charge) and the batch.valid counter, which share
// ValidateDocument with the serve hot path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stap/approx/upper.h"
#include "stap/base/budget.h"
#include "stap/base/compile_cache.h"
#include "stap/base/metrics.h"
#include "stap/gen/families.h"
#include "stap/io/artifact.h"
#include "stap/schema/text_format.h"
#include "stap/io/batch_validate.h"
#include "stap/serve/client.h"
#include "stap/serve/protocol.h"
#include "stap/serve/server.h"
#include "stap/serve/snapshot.h"

namespace stap {
namespace {

constexpr char kLibSchema[] = R"(
start Lib
type Lib     : library -> Book*
type Book    : book    -> Title Chapter+
type Title   : title   -> %
type Chapter : chapter -> (Section | %)
type Section : section -> %
)";

constexpr char kValidDoc[] =
    "<library><book><title/><chapter/></book></library>";
constexpr char kInvalidDoc[] = "<library><book><title/></book></library>";

// Starts a server with `options` and registers the Lib schema as "@lib".
std::unique_ptr<Server> StartWithLib(ServeOptions options) {
  auto server = std::make_unique<Server>(std::move(options));
  Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started;
  StatusOr<CompiledSchema> lib = CompileSchema(kLibSchema, nullptr);
  EXPECT_TRUE(lib.ok()) << lib.status();
  SchemaMap schemas;
  schemas["lib"] = std::make_shared<const CompiledSchema>(std::move(*lib));
  server->registry()->Swap(std::move(schemas));
  return server;
}

ServeRequest ValidateRequest(uint64_t id, std::string schema_ref,
                             std::string payload) {
  ServeRequest request;
  request.id = id;
  request.op = Opcode::kValidate;
  request.schema_ref = std::move(schema_ref);
  request.payload = std::move(payload);
  return request;
}

std::string U32Le(uint32_t value) {
  std::string out(4, '\0');
  out[0] = static_cast<char>(value & 0xff);
  out[1] = static_cast<char>((value >> 8) & 0xff);
  out[2] = static_cast<char>((value >> 16) & 0xff);
  out[3] = static_cast<char>((value >> 24) & 0xff);
  return out;
}

// A raw HTTP/1.0 GET, bypassing ServeClient (which speaks the binary
// preamble).
std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_TRUE(WriteAll(fd, request).ok());
  std::string response;
  char chunk[1024];
  ssize_t r;
  while ((r = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<size_t>(r));
  }
  ::close(fd);
  return response;
}

TEST(Serve, PingEchoesPayload) {
  std::unique_ptr<Server> server = StartWithLib({});
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  ServeRequest ping;
  ping.id = 7;
  ping.op = Opcode::kPing;
  ping.payload = "hello";
  StatusOr<ServeResponse> response = client.Call(ping);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->id, 7u);
  EXPECT_EQ(response->code, ResponseCode::kOk);
  EXPECT_EQ(response->body, "hello");
}

TEST(Serve, ValidateAgainstRegisteredSchema) {
  std::unique_ptr<Server> server = StartWithLib({});
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  StatusOr<ServeResponse> valid =
      client.Call(ValidateRequest(1, "@lib", kValidDoc));
  ASSERT_TRUE(valid.ok());
  EXPECT_EQ(valid->code, ResponseCode::kOk);

  StatusOr<ServeResponse> invalid =
      client.Call(ValidateRequest(2, "@lib", kInvalidDoc));
  ASSERT_TRUE(invalid.ok());
  EXPECT_EQ(invalid->code, ResponseCode::kInvalid);
  EXPECT_FALSE(invalid->body.empty());

  StatusOr<ServeResponse> missing =
      client.Call(ValidateRequest(3, "@nope", kValidDoc));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->code, ResponseCode::kNotFound);
}

TEST(Serve, InlineSchemaTextCompilesAndMemoizes) {
  std::unique_ptr<Server> server = StartWithLib({});
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  StatusOr<ServeResponse> first =
      client.Call(ValidateRequest(1, kLibSchema, kValidDoc));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->code, ResponseCode::kOk);
  EXPECT_EQ(server->registry()->num_inline(), 1);

  // Warm: the same text resolves from the inline memo.
  StatusOr<ServeResponse> second =
      client.Call(ValidateRequest(2, kLibSchema, kInvalidDoc));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->code, ResponseCode::kInvalid);
  EXPECT_EQ(server->registry()->num_inline(), 1);

  // Garbage schema text reports an error without killing the connection.
  StatusOr<ServeResponse> bad =
      client.Call(ValidateRequest(3, "not a schema", kValidDoc));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->code, ResponseCode::kError);
}

TEST(Serve, InclusionAndApproximationOps) {
  std::unique_ptr<Server> server = StartWithLib({});
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  ServeRequest included;
  included.id = 1;
  included.op = Opcode::kIncluded;
  included.schema_ref = "@lib";
  included.payload = "@lib";  // L ⊆ L
  StatusOr<ServeResponse> inclusion = client.Call(included);
  ASSERT_TRUE(inclusion.ok());
  EXPECT_EQ(inclusion->code, ResponseCode::kOk);
  EXPECT_EQ(inclusion->body, "INCLUDED");

  ServeRequest approx;
  approx.id = 2;
  approx.op = Opcode::kApprox;
  approx.schema_ref = "@lib";
  StatusOr<ServeResponse> approximation = client.Call(approx);
  ASSERT_TRUE(approximation.ok());
  EXPECT_EQ(approximation->code, ResponseCode::kOk);
  EXPECT_NE(approximation->body.find("start "), std::string::npos);
}

// kIncluded runs Lemma 3.3 against the second schema's compiled XSD: the
// alphabets are aligned by name in either direction, and the pair walk
// charges the per-request state quota.
TEST(Serve, InclusionAlignsAlphabetsAndHonoursTheQuota) {
  constexpr char kLibWithMagazines[] = R"(
start Lib
type Lib      : library  -> (Book | Magazine)*
type Book     : book     -> Title Chapter+
type Magazine : magazine -> Title
type Title    : title    -> %
type Chapter  : chapter  -> (Section | %)
type Section  : section  -> %
)";
  {
    std::unique_ptr<Server> server = StartWithLib({});
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
    ServeRequest wider;
    wider.id = 1;
    wider.op = Opcode::kIncluded;
    wider.schema_ref = kLibWithMagazines;  // magazines are not in @lib
    wider.payload = "@lib";
    StatusOr<ServeResponse> not_included = client.Call(wider);
    ASSERT_TRUE(not_included.ok()) << not_included.status();
    EXPECT_EQ(not_included->code, ResponseCode::kOk);
    EXPECT_EQ(not_included->body, "NOT INCLUDED");

    ServeRequest narrower;
    narrower.id = 2;
    narrower.op = Opcode::kIncluded;
    narrower.schema_ref = "@lib";
    narrower.payload = kLibWithMagazines;
    StatusOr<ServeResponse> included = client.Call(narrower);
    ASSERT_TRUE(included.ok()) << included.status();
    EXPECT_EQ(included->code, ResponseCode::kOk);
    EXPECT_EQ(included->body, "INCLUDED");
  }
  // @lib ⊆ @lib walks six pairs (the root pair and one per type).
  ServeOptions options;
  options.request_max_states = 2;
  std::unique_ptr<Server> server = StartWithLib(std::move(options));
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  ServeRequest self;
  self.id = 3;
  self.op = Opcode::kIncluded;
  self.schema_ref = "@lib";
  self.payload = "@lib";
  StatusOr<ServeResponse> exhausted = client.Call(self);
  ASSERT_TRUE(exhausted.ok()) << exhausted.status();
  EXPECT_EQ(exhausted->code, ResponseCode::kExhausted) << exhausted->body;
}

TEST(Serve, ConcurrentClients) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 40;
  ServeOptions options;
  options.max_connections = kClients + 2;
  std::unique_ptr<Server> server = StartWithLib(std::move(options));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client;
      if (!client.Connect("127.0.0.1", server->port()).ok()) {
        failures.fetch_add(kRequestsPerClient);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const bool want_valid = (c + i) % 2 == 0;
        StatusOr<ServeResponse> response = client.Call(ValidateRequest(
            static_cast<uint64_t>(c * 1000 + i), "@lib",
            want_valid ? kValidDoc : kInvalidDoc));
        const ResponseCode want =
            want_valid ? ResponseCode::kOk : ResponseCode::kInvalid;
        if (!response.ok() || response->code != want) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// Snapshot hot-swap under live traffic: a client validates in a loop
// while the registry swaps epochs; every response must be kOk — an
// in-flight request keeps the epoch it pinned, a new one sees the new
// epoch, and no request ever observes a torn or missing schema.
TEST(Serve, HotSwapMidTraffic) {
  std::unique_ptr<Server> server = StartWithLib({});
  StatusOr<CompiledSchema> lib = CompileSchema(kLibSchema, nullptr);
  ASSERT_TRUE(lib.ok());
  auto shared_lib = std::make_shared<const CompiledSchema>(std::move(*lib));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> validated{0};
  std::thread traffic([&] {
    ServeClient client;
    if (!client.Connect("127.0.0.1", server->port()).ok()) {
      failures.fetch_add(1);
      return;
    }
    uint64_t id = 1;
    while (!stop.load()) {
      StatusOr<ServeResponse> response =
          client.Call(ValidateRequest(id++, "@lib", kValidDoc));
      if (!response.ok() || response->code != ResponseCode::kOk) {
        failures.fetch_add(1);
        return;
      }
      validated.fetch_add(1);
    }
  });

  const int64_t version0 = server->registry()->Current()->version;
  for (int swap = 0; swap < 100; ++swap) {
    SchemaMap schemas;
    schemas["lib"] = shared_lib;  // every epoch still serves @lib
    server->registry()->Swap(std::move(schemas));
    std::this_thread::yield();
  }
  // Let traffic observe the final epoch before stopping.
  const int target = validated.load() + 5;
  while (validated.load() < target && failures.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  traffic.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(validated.load(), 5);
  EXPECT_EQ(server->registry()->Current()->version, version0 + 100);
}

TEST(Serve, MalformedBodyKeepsConnectionUsable) {
  std::unique_ptr<Server> server = StartWithLib({});
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  // Intact framing, garbage body: the server rejects the request with an
  // ERROR frame (id 0, since no id could be decoded) and keeps reading.
  const std::string garbage = "junk!";
  ASSERT_TRUE(
      client.SendRaw(U32Le(static_cast<uint32_t>(garbage.size())) + garbage)
          .ok());
  StatusOr<ServeResponse> error = client.Receive();
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->code, ResponseCode::kError);
  EXPECT_EQ(error->id, 0u);

  // The stream is still synchronized: a real request succeeds.
  StatusOr<ServeResponse> after =
      client.Call(ValidateRequest(9, "@lib", kValidDoc));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->code, ResponseCode::kOk);
}

TEST(Serve, OversizedFrameIsRejectedAndConnectionClosed) {
  ServeOptions options;
  options.max_frame_bytes = 1024;
  std::unique_ptr<Server> server = StartWithLib(std::move(options));
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  // A length prefix past the cap: un-resynchronizable, so the server
  // reports and hangs up without ever allocating the claimed body.
  ASSERT_TRUE(client.SendRaw(U32Le(1u << 20)).ok());
  StatusOr<ServeResponse> error = client.Receive();
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->code, ResponseCode::kError);
  EXPECT_FALSE(client.Receive().ok());  // closed after the error frame

  // The server survives and takes new connections.
  ServeClient again;
  ASSERT_TRUE(again.Connect("127.0.0.1", server->port()).ok());
  StatusOr<ServeResponse> ok =
      again.Call(ValidateRequest(1, "@lib", kValidDoc));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->code, ResponseCode::kOk);
}

TEST(Serve, TruncatedFrameDoesNotCrashTheServer) {
  std::unique_ptr<Server> server = StartWithLib({});
  Counter* bad_frames = GetCounter("serve.bad_frame");
  const int64_t bad0 = bad_frames->value();
  {
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
    // Claim 100 bytes, deliver 5, hang up mid-body.
    ASSERT_TRUE(client.SendRaw(U32Le(100) + "short").ok());
  }
  // The handler observes the truncation and drains; the server stays up.
  ServeClient again;
  ASSERT_TRUE(again.Connect("127.0.0.1", server->port()).ok());
  StatusOr<ServeResponse> ok =
      again.Call(ValidateRequest(1, "@lib", kValidDoc));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->code, ResponseCode::kOk);
  // The first connection's handler counts the truncation on its own
  // thread, which may still be draining when the second call returns.
  for (int i = 0; i < 500 && bad_frames->value() == bad0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(bad_frames->value() - bad0, 1);
}

TEST(Serve, BudgetExhaustionReturnsExhaustedFrame) {
  ServeOptions options;
  options.request_max_states = 8;
  std::unique_ptr<Server> server = StartWithLib(std::move(options));
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  // A document with more nodes than the per-request state quota.
  std::string big = "<library>";
  for (int i = 0; i < 20; ++i) big += "<book><title/><chapter/></book>";
  big += "</library>";
  StatusOr<ServeResponse> exhausted =
      client.Call(ValidateRequest(1, "@lib", big));
  ASSERT_TRUE(exhausted.ok());
  EXPECT_EQ(exhausted->code, ResponseCode::kExhausted);

  // Budgets are per-request: the connection stays healthy and a small
  // document still validates.
  StatusOr<ServeResponse> small =
      client.Call(ValidateRequest(2, "@lib", kValidDoc));
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->code, ResponseCode::kOk);
}

// The approx opcode charges one per-request budget end to end: with the
// state quota set to exactly what Construction 3.1 alone charges on the
// schema, the follow-up MinimizeXsd pushes the request over it.
TEST(Serve, ApproxChargesMinimizationAgainstTheRequestBudget) {
  StatusOr<CompiledSchema> lib = CompileSchema(kLibSchema, nullptr);
  ASSERT_TRUE(lib.ok()) << lib.status();
  Budget probe;
  ASSERT_TRUE(MinimalUpperApproximation(lib->edtd, &probe).ok());
  ASSERT_GT(probe.states_charged(), 0);

  ServeOptions options;
  options.request_max_states = probe.states_charged();
  std::unique_ptr<Server> server = StartWithLib(std::move(options));
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  ServeRequest approx;
  approx.id = 1;
  approx.op = Opcode::kApprox;
  approx.schema_ref = "@lib";
  StatusOr<ServeResponse> response = client.Call(approx);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, ResponseCode::kExhausted) << response->body;
}

// An inline schema of a few hundred bytes whose approximation has
// 2^(n+1)+1 states: under the default quota the answer is the same text
// the offline printer produces, and under a small state quota the request
// stops with EXHAUSTED instead of allocating in proportion to its output.
TEST(Serve, InlineTheorem32ApproxMatchesOfflineAndHonoursTheQuota) {
  const Edtd schema = Theorem32Family(12);
  StatusOr<std::string> offline =
      XsdToText(MinimalUpperApproximation(schema), nullptr);
  ASSERT_TRUE(offline.ok()) << offline.status();
  {
    std::unique_ptr<Server> server = StartWithLib({});
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
    ServeRequest approx;
    approx.id = 1;
    approx.op = Opcode::kApprox;
    approx.schema_ref = SchemaToText(schema);
    StatusOr<ServeResponse> response = client.Call(approx);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->code, ResponseCode::kOk) << response->body;
    EXPECT_EQ(response->body, *offline);
  }
  ServeOptions options;
  options.request_max_states = 10000;
  std::unique_ptr<Server> server = StartWithLib(std::move(options));
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  ServeRequest approx;
  approx.id = 2;
  approx.op = Opcode::kApprox;
  approx.schema_ref = SchemaToText(Theorem32Family(14));
  StatusOr<ServeResponse> response = client.Call(approx);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, ResponseCode::kExhausted) << response->body;
}

// A five-line single-type schema whose one computed content prints to
// text exponential in its bound: reduction drops R's source (it mentions
// the unproductive U), so the printer state-eliminates (A B | C){0,40}.
// The printer charges the bytes it renders, so under a state quota the
// request stops with EXHAUSTED instead of exhausting the daemon's memory,
// and the daemon goes on serving.
TEST(Serve, InlineApproxWithExponentialTextHonoursTheQuota) {
  ServeOptions options;
  options.request_max_states = 100000;
  std::unique_ptr<Server> server = StartWithLib(std::move(options));
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  ServeRequest approx;
  approx.id = 1;
  approx.op = Opcode::kApprox;
  approx.schema_ref =
      "start R\n"
      "type R : r -> (A B | C | U){0,40}\n"
      "type A : a -> %\n"
      "type B : b -> %\n"
      "type C : c -> %\n"
      "type U : u -> U\n";
  StatusOr<ServeResponse> response = client.Call(approx);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, ResponseCode::kExhausted) << response->body;

  StatusOr<ServeResponse> next = client.Call(ValidateRequest(2, "@lib",
                                                             kValidDoc));
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->code, ResponseCode::kOk) << next->body;
}

TEST(Serve, ConnectionCapShedsWithBusyFrame) {
  ServeOptions options;
  options.max_connections = 1;
  std::unique_ptr<Server> server = StartWithLib(std::move(options));

  ServeClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server->port()).ok());
  ServeRequest ping;
  ping.id = 1;
  ping.op = Opcode::kPing;
  ASSERT_TRUE(first.Call(ping).ok());  // first connection is established

  ServeClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server->port()).ok());
  StatusOr<ServeResponse> busy = second.Receive();
  ASSERT_TRUE(busy.ok()) << busy.status();
  EXPECT_EQ(busy->code, ResponseCode::kBusy);
  second.Close();

  // Releasing the first connection frees the slot (the handler drains
  // asynchronously, so poll briefly).
  first.Close();
  bool reconnected = false;
  for (int attempt = 0; attempt < 200 && !reconnected; ++attempt) {
    ServeClient retry;
    if (retry.Connect("127.0.0.1", server->port()).ok()) {
      ping.id = 2;
      StatusOr<ServeResponse> response = retry.Call(ping);
      if (response.ok() && response->code == ResponseCode::kOk) {
        reconnected = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(reconnected);
}

// The acceptance-criteria stampede: 32 cold clients reference the same
// inline schema at once. Exactly one ParseSchema runs (the inline memo),
// each distinct content model is compiled exactly once (the compile
// cache), and no request fails.
TEST(Serve, ColdSchemaStampedeCompilesExactlyOnce) {
  constexpr int kClients = 32;
  constexpr char kZooSchema[] = R"(
start Zoo
type Zoo    : zoo    -> Pen*
type Pen    : pen    -> Animal+
type Animal : animal -> (Toy | %)
type Toy    : toy    -> %
)";
  constexpr char kZooDoc[] = "<zoo><pen><animal><toy/></animal></pen></zoo>";

  CompileCache cache(4);
  ServeOptions options;
  options.max_connections = kClients + 2;
  options.cache = &cache;
  auto server = std::make_unique<Server>(std::move(options));
  ASSERT_TRUE(server->Start().ok());

  Counter* inserts = GetCounter("cache.insert");
  const int64_t inserts0 = inserts->value();

  std::atomic<int> failures{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> herd;
  herd.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    herd.emplace_back([&, c] {
      ServeClient client;
      if (!client.Connect("127.0.0.1", server->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      StatusOr<ServeResponse> response = client.Call(ValidateRequest(
          static_cast<uint64_t>(c), kZooSchema, kZooDoc));
      if (!response.ok() || response->code != ResponseCode::kOk) {
        failures.fetch_add(1);
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  go.store(true);
  for (std::thread& thread : herd) thread.join();

  EXPECT_EQ(failures.load(), 0);
  // Zoo has 4 distinct content models: Pen*, Animal+, (Toy | %), %.
  EXPECT_EQ(inserts->value() - inserts0, 4);
  EXPECT_EQ(cache.size(), 4);
  EXPECT_EQ(server->registry()->num_inline(), 1);
}

TEST(Serve, ReloadSwapsInNewSchemaDirectory) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "stap_serve_reload_test";
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));
  { std::ofstream(dir / "lib.stap") << kLibSchema; }

  ServeOptions options;
  options.schema_dir = dir.string();
  auto server = std::make_unique<Server>(std::move(options));
  ASSERT_TRUE(server->Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  StatusOr<ServeResponse> before =
      client.Call(ValidateRequest(1, "@lib", kValidDoc));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->code, ResponseCode::kOk);
  StatusOr<ServeResponse> missing =
      client.Call(ValidateRequest(2, "@tiny", "<a/>"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->code, ResponseCode::kNotFound);

  { std::ofstream(dir / "tiny.stap") << "start A\ntype A : a -> %\n"; }
  ServeRequest reload;
  reload.id = 3;
  reload.op = Opcode::kReload;
  StatusOr<ServeResponse> reloaded = client.Call(reload);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->code, ResponseCode::kOk);
  EXPECT_NE(reloaded->body.find("2 schemas"), std::string::npos);

  StatusOr<ServeResponse> after =
      client.Call(ValidateRequest(4, "@tiny", "<a/>"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->code, ResponseCode::kOk);

  fs::remove_all(dir);
}

TEST(Serve, HttpHealthzAndMetrics) {
  std::unique_ptr<Server> server = StartWithLib({});
  // Touch the binary path so serve counters exist in the exposition.
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(client.Call(ValidateRequest(1, "@lib", kValidDoc)).ok());

  const std::string health = HttpGet(server->port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  const std::string metrics = HttpGet(server->port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("stap_serve_requests"), std::string::npos);
  EXPECT_NE(metrics.find("stap_serve_ok"), std::string::npos);

  const std::string missing = HttpGet(server->port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
}

// Strips the HTTP header block, returning just the body.
std::string HttpBody(const std::string& response) {
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return "";
  return response.substr(header_end + 4);
}

TEST(Serve, HealthzFirstLineIsExactlyOk) {
  std::unique_ptr<Server> server = StartWithLib({});
  const std::string body = HttpBody(HttpGet(server->port(), "/healthz"));
  // The CI smoke greps `^ok`; the machine-readable detail rides behind it
  // on separate lines.
  ASSERT_NE(body.find('\n'), std::string::npos);
  EXPECT_EQ(body.substr(0, body.find('\n')), "ok");
  EXPECT_NE(body.find("epoch="), std::string::npos);
  EXPECT_NE(body.find("schemas=1"), std::string::npos);
  EXPECT_NE(body.find("uptime_s="), std::string::npos);
}

TEST(Serve, StatuszReportsRequestsAndWindows) {
  std::unique_ptr<Server> server = StartWithLib({});
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(client.Call(ValidateRequest(1, "@lib", kValidDoc)).ok());
  ASSERT_TRUE(client.Call(ValidateRequest(2, "@lib", kInvalidDoc)).ok());
  ASSERT_TRUE(client.Call(ValidateRequest(3, "@nope", kValidDoc)).ok());

  const std::string response = HttpGet(server->port(), "/statusz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const std::string body = HttpBody(response);
  EXPECT_NE(body.find("\"service\": \"stap-serve\""), std::string::npos);
  EXPECT_NE(body.find("\"snapshot_epoch\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"schema_count\": 1"), std::string::npos);
  // Request counters and rolling windows are process-global, so earlier
  // tests in this binary contribute: assert lower bounds, not equality.
  auto field = [&body](const char* key) {
    const std::string needle = std::string("\"") + key + "\": ";
    const size_t pos = body.find(needle);
    EXPECT_NE(pos, std::string::npos) << key << " missing from " << body;
    if (pos == std::string::npos) return -1.0;
    return std::strtod(body.c_str() + pos + needle.size(), nullptr);
  };
  EXPECT_GE(field("total_requests"), 3);
  EXPECT_GE(field("window_ok"), 1);
  EXPECT_GE(field("window_invalid"), 1);
  EXPECT_GE(field("window_not_found"), 1);
  EXPECT_GT(field("p99_us"), 0);
  EXPECT_GE(field("uptime_s"), 0);
  EXPECT_GE(field("active_connections"), 1);
}

TEST(Serve, SlowRequestKeepsItsSpanTreeInRequestz) {
  ServeOptions options;
  options.slow_request_ms = 1;
  std::unique_ptr<Server> server = StartWithLib(std::move(options));
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  // A fast request stays out of the slow ring...
  ASSERT_TRUE(client.Call(ValidateRequest(1, "@lib", kValidDoc)).ok());
  // ...while the approximation of the Theorem 3.2 family (necessarily
  // exponential: 8193 states at n = 12, well past 1 ms) lands in it with
  // its span tree.
  ServeRequest slow;
  slow.id = 2;
  slow.op = Opcode::kApprox;
  slow.schema_ref = SchemaToText(Theorem32Family(12));
  StatusOr<ServeResponse> response = client.Call(slow);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, ResponseCode::kOk);

  const std::string body = HttpBody(HttpGet(server->port(), "/requestz"));
  const size_t slow_section = body.find("\"slow\":");
  ASSERT_NE(slow_section, std::string::npos) << body;
  EXPECT_NE(body.find("\"op\":\"approx\"", slow_section), std::string::npos)
      << body;
  EXPECT_NE(body.find("serve.request", slow_section), std::string::npos)
      << body;
  // The fast request shows up in the recent ring only.
  EXPECT_EQ(body.find("\"op\":\"validate\"", slow_section),
            std::string::npos);
  EXPECT_NE(body.find("\"op\":\"validate\""), std::string::npos);
}

TEST(Serve, RequestzRecentRingWraps) {
  ServeOptions options;
  options.access_log_ring = 2;
  std::unique_ptr<Server> server = StartWithLib(std::move(options));
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(client.Call(ValidateRequest(i, "@lib", kValidDoc)).ok());
  }
  const std::string body = HttpBody(HttpGet(server->port(), "/requestz"));
  // Server-assigned ids are monotonic from 1; only the last two survive.
  EXPECT_EQ(body.find("\"req\":3,"), std::string::npos) << body;
  const size_t pos4 = body.find("\"req\":4,");
  const size_t pos5 = body.find("\"req\":5,");
  ASSERT_NE(pos4, std::string::npos) << body;
  ASSERT_NE(pos5, std::string::npos) << body;
  EXPECT_LT(pos4, pos5);  // oldest first
}

// --- regression tests for the batch-validation budget fix --------------

// A budget that survives the pre-parse deadline check must still stop an
// oversized document: the tree is charged against the state quota after
// parsing, before validation walks it.
TEST(ValidateDocument, ChargesParsedTreeAgainstStateQuota) {
  StatusOr<CompiledSchema> schema = CompileSchema(kLibSchema, nullptr);
  ASSERT_TRUE(schema.ok());

  std::string big = "<library>";
  for (int i = 0; i < 50; ++i) big += "<book><title/><chapter/></book>";
  big += "</library>";

  Budget budget;
  budget.set_max_states(10);
  DocumentVerdict verdict = ValidateDocument(*schema, big, &budget);
  EXPECT_EQ(verdict.kind, DocumentVerdict::Kind::kError);
  EXPECT_EQ(verdict.error_code, StatusCode::kResourceExhausted);

  // The same document sails through without a budget...
  DocumentVerdict unlimited = ValidateDocument(*schema, big, nullptr);
  EXPECT_EQ(unlimited.kind, DocumentVerdict::Kind::kValid);

  // ...and a small document fits inside the quota.
  Budget roomy;
  roomy.set_max_states(10);
  DocumentVerdict small = ValidateDocument(*schema, kValidDoc, &roomy);
  EXPECT_EQ(small.kind, DocumentVerdict::Kind::kValid);
}

TEST(BatchValidate, ExportsTheValidCounter) {
  StatusOr<CompiledSchema> schema = CompileSchema(kLibSchema, nullptr);
  ASSERT_TRUE(schema.ok());
  Counter* valid = GetCounter("batch.valid");
  Counter* invalid = GetCounter("batch.invalid");
  const int64_t valid0 = valid->value();
  const int64_t invalid0 = invalid->value();

  std::vector<BatchDocument> documents(3);
  documents[0] = {"a.xml", kValidDoc, ""};
  documents[1] = {"b.xml", kValidDoc, ""};
  documents[2] = {"c.xml", kInvalidDoc, ""};
  BatchResult result = BatchValidate(*schema, documents, BatchOptions());
  EXPECT_EQ(result.num_valid, 2);
  EXPECT_EQ(valid->value() - valid0, 2);
  EXPECT_EQ(invalid->value() - invalid0, 1);
}

}  // namespace
}  // namespace stap
