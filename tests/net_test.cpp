// Unit tests: the step-driven asynchronous network simulator.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "util/ids.h"

namespace rgc::net {
namespace {

struct TestMsg final : Message {
  int value{0};
  bool is_reliable{false};

  [[nodiscard]] const char* kind() const noexcept override { return "Test"; }
  [[nodiscard]] bool reliable() const noexcept override { return is_reliable; }
  [[nodiscard]] std::unique_ptr<Message> clone() const override {
    return std::make_unique<TestMsg>(*this);
  }
};

std::unique_ptr<TestMsg> make(int value, bool reliable = false) {
  auto m = std::make_unique<TestMsg>();
  m->value = value;
  m->is_reliable = reliable;
  return m;
}

/// Steps until nothing is in flight.
void drain(Network& net) {
  while (!net.idle()) net.step();
}

struct Recorder {
  std::vector<int> values;
  std::vector<std::uint64_t> seqs;
  void operator()(const Envelope& env, Message&) {
    values.push_back(static_cast<const TestMsg*>(env.msg)->value);
    seqs.push_back(env.seq);
  }
};

TEST(Network, DeliversAfterOneStep) {
  Network net;
  Recorder rec;
  const ProcessId a{0}, b{1};
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, std::ref(rec));
  net.send(a, b, make(42));
  EXPECT_TRUE(rec.values.empty());
  net.step();
  ASSERT_EQ(rec.values.size(), 1u);
  EXPECT_EQ(rec.values[0], 42);
}

TEST(Network, NeverDeliversInSendStep) {
  Network net;
  const ProcessId a{0}, b{1};
  int delivered = 0;
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, [&](const Envelope&, Message&) { ++delivered; });
  net.send(a, b, make(1));
  EXPECT_EQ(delivered, 0);
}

TEST(Network, SeqNumbersArePerLinkAndMonotonic) {
  Network net;
  Recorder rb, rc;
  const ProcessId a{0}, b{1}, c{2};
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, std::ref(rb));
  net.attach(c, std::ref(rc));
  EXPECT_EQ(net.send(a, b, make(1)), 1u);
  EXPECT_EQ(net.send(a, b, make(2)), 2u);
  EXPECT_EQ(net.send(a, c, make(3)), 1u);  // independent link counter
  drain(net);
  EXPECT_EQ(rb.seqs, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(rc.seqs, (std::vector<std::uint64_t>{1}));
}

TEST(Network, FifoWithinOneLinkAtFixedDelay) {
  Network net;
  Recorder rec;
  const ProcessId a{0}, b{1};
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, std::ref(rec));
  for (int i = 0; i < 10; ++i) net.send(a, b, make(i));
  net.step();
  EXPECT_EQ(rec.values, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Network, HandlerSendsAreDeliveredNextStep) {
  Network net;
  const ProcessId a{0}, b{1};
  std::vector<std::uint64_t> arrival_steps;
  net.attach(a, [&](const Envelope&, Message&) {
    arrival_steps.push_back(net.now());
  });
  net.attach(b, [&](const Envelope& env, Message&) {
    arrival_steps.push_back(net.now());
    // ping-pong once
    if (env.seq == 1) net.send(b, a, make(99));
  });
  net.send(a, b, make(1));
  drain(net);
  ASSERT_EQ(arrival_steps.size(), 2u);
  EXPECT_EQ(arrival_steps[0] + 1, arrival_steps[1]);
}

TEST(Network, MetricsCountSentAndDelivered) {
  Network net;
  const ProcessId a{0}, b{1};
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, [](const Envelope&, Message&) {});
  net.send(a, b, make(1));
  net.send(a, b, make(2));
  drain(net);
  EXPECT_EQ(net.metrics().get("net.sent.Test"), 2u);
  EXPECT_EQ(net.metrics().get("net.delivered.Test"), 2u);
  EXPECT_EQ(net.total_sent("Test"), 2u);
}

TEST(Network, PerStepSendAccounting) {
  Network net;
  const ProcessId a{0}, b{1};
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, [&](const Envelope&, Message&) { net.send(b, a, make(7)); });
  net.send(a, b, make(1));  // sent at step 0
  drain(net);
  EXPECT_EQ(net.sent_at_step("Test", 0), 1u);
  EXPECT_EQ(net.sent_at_step("Test", 1), 1u);  // the reply
  EXPECT_EQ(net.sent_at_step("Test", 99), 0u);
}

TEST(Network, DropInjectionLosesUnreliableMessages) {
  NetworkConfig cfg;
  cfg.seed = 5;
  cfg.drop_probability = 1.0;
  Network net{cfg};
  const ProcessId a{0}, b{1};
  int delivered = 0;
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, [&](const Envelope&, Message&) { ++delivered; });
  net.send(a, b, make(1));
  drain(net);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.metrics().get("net.dropped"), 1u);
}

TEST(Network, ReliableMessagesSurviveDropInjection) {
  NetworkConfig cfg;
  cfg.seed = 5;
  cfg.drop_probability = 1.0;
  Network net{cfg};
  const ProcessId a{0}, b{1};
  int delivered = 0;
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, [&](const Envelope&, Message&) { ++delivered; });
  net.send(a, b, make(1, /*reliable=*/true));
  drain(net);
  EXPECT_EQ(delivered, 1);
}

TEST(Network, DuplicateInjectionDeliversTwice) {
  NetworkConfig cfg;
  cfg.seed = 6;
  cfg.duplicate_probability = 1.0;
  Network net{cfg};
  const ProcessId a{0}, b{1};
  int delivered = 0;
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, [&](const Envelope&, Message&) { ++delivered; });
  net.send(a, b, make(1));
  drain(net);
  EXPECT_EQ(delivered, 2);
}

TEST(Network, ReliableNeverDuplicated) {
  NetworkConfig cfg;
  cfg.seed = 6;
  cfg.duplicate_probability = 1.0;
  Network net{cfg};
  const ProcessId a{0}, b{1};
  int delivered = 0;
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, [&](const Envelope&, Message&) { ++delivered; });
  net.send(a, b, make(1, /*reliable=*/true));
  drain(net);
  EXPECT_EQ(delivered, 1);
}

TEST(Network, ReliableFifoUnderJitter) {
  NetworkConfig cfg;
  cfg.seed = 7;
  cfg.min_delay = 1;
  cfg.max_delay = 5;
  Network net{cfg};
  Recorder rec;
  const ProcessId a{0}, b{1};
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, std::ref(rec));
  for (int i = 0; i < 20; ++i) net.send(a, b, make(i, /*reliable=*/true));
  drain(net);
  ASSERT_EQ(rec.values.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rec.values[i], i);
}

TEST(Network, JitterCanReorderUnreliableMessages) {
  NetworkConfig cfg;
  cfg.seed = 8;
  cfg.min_delay = 1;
  cfg.max_delay = 10;
  Network net{cfg};
  Recorder rec;
  const ProcessId a{0}, b{1};
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, std::ref(rec));
  for (int i = 0; i < 30; ++i) net.send(a, b, make(i));
  drain(net);
  ASSERT_EQ(rec.values.size(), 30u);
  bool reordered = false;
  for (std::size_t i = 1; i < rec.values.size(); ++i) {
    if (rec.values[i] < rec.values[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered) << "expected at least one reordering under jitter";
}

TEST(Network, UnattachedDestinationThrows) {
  Network net;
  const ProcessId a{0}, b{1};
  net.attach(a, [](const Envelope&, Message&) {});
  net.send(a, b, make(1));
  EXPECT_THROW(net.step(), std::logic_error);
}

TEST(Network, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.seed = seed;
    cfg.min_delay = 1;
    cfg.max_delay = 4;
    Network net{cfg};
    Recorder rec;
    const ProcessId a{0}, b{1};
    net.attach(a, [](const Envelope&, Message&) {});
    net.attach(b, std::ref(rec));
    for (int i = 0; i < 25; ++i) net.send(a, b, make(i));
    drain(net);
    return rec.values;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(Network, WeightMetricsAccumulate) {
  Network net;
  const ProcessId a{0}, b{1};
  net.attach(a, [](const Envelope&, Message&) {});
  net.attach(b, [](const Envelope&, Message&) {});
  net.send(a, b, make(1));
  EXPECT_EQ(net.metrics().get("net.weight.Test"), 1u);
}

}  // namespace
}  // namespace rgc::net
