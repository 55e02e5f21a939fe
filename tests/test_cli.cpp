#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/engine_flags.hpp"
#include "simmpi/fault.hpp"

namespace dbfs::util {
namespace {

ArgParser parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return ArgParser(static_cast<int>(v.size()), v.data());
}

TEST(ArgParser, KeyValuePairs) {
  const auto args = parse({"prog", "--scale", "16", "--machine", "hopper"});
  EXPECT_EQ(args.get_int("scale", 0), 16);
  EXPECT_EQ(args.get("machine", ""), "hopper");
  EXPECT_EQ(args.program(), "prog");
}

TEST(ArgParser, EqualsSyntax) {
  const auto args = parse({"prog", "--scale=20", "--ratio=2.5"});
  EXPECT_EQ(args.get_int("scale", 0), 20);
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 2.5);
}

TEST(ArgParser, BareFlags) {
  const auto args = parse({"prog", "--verbose", "--scale", "8"});
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_FALSE(args.get_flag("quiet"));
  EXPECT_EQ(args.get_int("scale", 0), 8);
}

TEST(ArgParser, FlagFollowedByFlag) {
  const auto args = parse({"prog", "--a", "--b"});
  EXPECT_TRUE(args.get_flag("a"));
  EXPECT_TRUE(args.get_flag("b"));
}

TEST(ArgParser, ExplicitFalseFlag) {
  const auto args = parse({"prog", "--check=0", "--other=false"});
  EXPECT_FALSE(args.get_flag("check"));
  EXPECT_FALSE(args.get_flag("other"));
}

TEST(ArgParser, Fallbacks) {
  const auto args = parse({"prog"});
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(args.has("missing"));
}

// The message of the std::invalid_argument `call` throws; fails the test
// when it throws nothing.
template <typename Call>
std::string thrown_message(Call&& call) {
  try {
    call();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "no std::invalid_argument thrown";
  return "";
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

TEST(ArgParser, MalformedNumbersThrowNamingTheFlag) {
  const auto args = parse({"prog", "--scale", "zebra", "--cores=16x",
                           "--sources=", "--reps=2.5", "--ratio", "2.5.1"});
  for (const char* key : {"scale", "cores", "sources", "reps"}) {
    const std::string message =
        thrown_message([&] { (void)args.get_int(key, 3); });
    EXPECT_TRUE(starts_with(message, std::string("--") + key + ": "))
        << message;
  }
  EXPECT_TRUE(starts_with(
      thrown_message([&] { (void)args.get_double("ratio", 1.0); }),
      "--ratio: "));

  EXPECT_EQ(parse_number<int>("16", "cores"), 16);
  EXPECT_EQ(parse_number<std::uint64_t>("42"), 42u);
  EXPECT_DOUBLE_EQ(parse_number<double>("-1e-3"), -1e-3);
  EXPECT_EQ(thrown_message([] { (void)parse_number<int>("16x", "cores"); }),
            "cores: expected an integer, got '16x'");
  EXPECT_EQ(thrown_message([] { (void)parse_number<double>(""); }),
            "expected a number, got ''");
  for (const char* text : {" 16", "16 ", "+16", "1e3", "4294967296"}) {
    EXPECT_THROW((void)parse_number<int>(text), std::invalid_argument)
        << text;
  }
  EXPECT_THROW((void)parse_number<std::uint64_t>("-1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_number<double>("1e999"), std::invalid_argument);
}

TEST(ArgParser, Positional) {
  const auto args = parse({"prog", "input.txt", "--scale", "8", "more"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "more");
}

TEST(ArgParser, UnknownKeysDetected) {
  auto args = parse({"prog", "--scale", "8", "--typo", "x"});
  args.describe("scale", "the scale");
  const auto unknown = args.unknown_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(ArgParser, UsageMentionsDescribedOptions) {
  auto args = parse({"prog"});
  args.describe("scale", "log2 vertices", "14");
  const std::string usage = args.usage();
  EXPECT_NE(usage.find("--scale"), std::string::npos);
  EXPECT_NE(usage.find("log2 vertices"), std::string::npos);
  EXPECT_NE(usage.find("default: 14"), std::string::npos);
}

// ---- EngineFlags: the one binding from flags to core::EngineOptions ----

using core::EngineOptions;

EngineOptions hopper_base() {
  EngineOptions base;
  base.machine = model::hopper();
  return base;
}

// Field-by-field equality of EngineOptions; fault plans by their JSON.
void expect_same_options(const EngineOptions& want, const EngineOptions& got,
                         const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(got.algorithm, want.algorithm);
  EXPECT_EQ(got.cores, want.cores);
  EXPECT_EQ(got.threads_per_rank, want.threads_per_rank);
  EXPECT_EQ(got.machine.name, want.machine.name);
  EXPECT_EQ(got.machine.beta_net, want.machine.beta_net);
  EXPECT_EQ(got.backend, want.backend);
  EXPECT_EQ(got.vector_dist, want.vector_dist);
  EXPECT_EQ(got.triangular_storage, want.triangular_storage);
  EXPECT_EQ(got.wire_format, want.wire_format);
  EXPECT_EQ(got.load_smoothing, want.load_smoothing);
  EXPECT_EQ(simmpi::to_json(got.faults), simmpi::to_json(want.faults));
  EXPECT_EQ(got.recover.checkpoint_every, want.recover.checkpoint_every);
  EXPECT_EQ(got.recover.policy, want.recover.policy);
  EXPECT_EQ(got.recover.spare_ranks, want.recover.spare_ranks);
  EXPECT_EQ(got.recover.audit_every, want.recover.audit_every);
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(got.metrics, want.metrics);
  EXPECT_EQ(got.atlas, want.atlas);
  EXPECT_EQ(got.direction, want.direction);
  EXPECT_EQ(got.alpha, want.alpha);
  EXPECT_EQ(got.beta, want.beta);
}

// One row per bound flag: a non-default value and the one field it sets.
struct FlagRow {
  const char* key;
  const char* value;
  void (*want)(EngineOptions&);
};

const FlagRow kFlagRows[] = {
    {"threads", "4", [](EngineOptions& o) { o.threads_per_rank = 4; }},
    {"machine", "franklin",
     [](EngineOptions& o) { o.machine = model::franklin(); }},
    {"backend", "heap",
     [](EngineOptions& o) { o.backend = sparse::SpmsvBackend::kHeap; }},
    {"triangular", "1", [](EngineOptions& o) { o.triangular_storage = true; }},
    {"direction", "hybrid",
     [](EngineOptions& o) { o.direction = bfs::DirectionMode::kHybrid; }},
    {"alpha", "8", [](EngineOptions& o) { o.alpha = 8.0; }},
    {"beta", "-1", [](EngineOptions& o) { o.beta = -1.0; }},
    {"fault-seed", "42", [](EngineOptions& o) { o.faults.seed = 42; }},
    {"straggler", "3:4.0,1:2",
     [](EngineOptions& o) {
       o.faults.compute_stragglers = {{3, 4.0}, {1, 2.0}};
     }},
    {"degrade-nic", "5:2.0",
     [](EngineOptions& o) { o.faults.nic_stragglers = {{5, 2.0}}; }},
    {"fail-rate", "0.05",
     [](EngineOptions& o) { o.faults.collective_fail_rate = 0.05; }},
    {"corrupt-rate", "0.01",
     [](EngineOptions& o) { o.faults.corrupt_rate = 0.01; }},
    {"corrupt-mode", "drop",
     [](EngineOptions& o) {
       o.faults.corrupt_kind = simmpi::CorruptKind::kDrop;
     }},
    {"fault-plan", "kill:2@level3",
     [](EngineOptions& o) {
       simmpi::RankKill kill;
       kill.rank = 2;
       kill.at_level = 3;
       o.faults.rank_kills = {kill};
     }},
    {"checkpoint-every", "2",
     [](EngineOptions& o) { o.recover.checkpoint_every = 2; }},
    {"audit-every", "3", [](EngineOptions& o) { o.recover.audit_every = 3; }},
    {"recover-policy", "spare",
     [](EngineOptions& o) { o.recover.policy = recover::Policy::kSpare; }},
    {"spare-ranks", "0", [](EngineOptions& o) { o.recover.spare_ranks = 0; }},
};

TEST(EngineFlags, EachFlagSetsOnlyItsFieldInBothSpellings) {
  ASSERT_EQ(std::size(kFlagRows), 18u);
  for (const FlagRow& row : kFlagRows) {
    EngineOptions want = hopper_base();
    row.want(want);
    const std::string flag = std::string("--") + row.key;
    const std::string joined = flag + "=" + row.value;
    auto spaced = parse({"prog", flag.c_str(), row.value});
    auto equals = parse({"prog", joined.c_str()});
    core::describe_engine_flags(spaced);
    EXPECT_TRUE(spaced.unknown_keys().empty()) << flag << " is not declared";
    expect_same_options(
        want, core::apply_engine_flags(spaced, hopper_base()),
        flag + " " + row.value);
    expect_same_options(
        want, core::apply_engine_flags(equals, hopper_base()), joined);
  }
}

TEST(EngineFlags, AbsentFlagsLeaveTheBaseUntouched) {
  EngineOptions base;
  base.algorithm = core::Algorithm::kOneDHybrid;
  base.cores = 96;
  base.threads_per_rank = 3;
  base.machine = model::carver();
  base.machine.beta_net *= 2.0;
  base.backend = sparse::SpmsvBackend::kSpa;
  base.vector_dist = dist::VectorDistKind::kDiagonal;
  base.triangular_storage = true;
  base.wire_format = comm::WireFormat::kAuto;
  base.load_smoothing = 0.5;
  base.faults.seed = 9;
  base.faults.collective_fail_rate = 0.2;
  base.faults.corrupt_rate = 0.3;
  base.faults.corrupt_kind = simmpi::CorruptKind::kDuplicate;
  base.faults.compute_stragglers = {{1, 3.0}};
  base.faults.nic_stragglers = {{2, 1.5}};
  simmpi::MemFlip flip;
  flip.rank = 1;
  flip.at_level = 2;
  base.faults.mem_flips = {flip};
  base.recover.checkpoint_every = 4;
  base.recover.policy = recover::Policy::kSpare;
  base.recover.spare_ranks = 3;
  base.recover.audit_every = 2;
  base.trace = true;
  base.metrics = true;
  base.atlas = true;
  base.direction = bfs::DirectionMode::kBottomUp;
  base.alpha = 5.0;
  base.beta = 7.0;
  auto args = parse({"prog", "16", "--scale", "9", "--algo=2d", "--json"});
  core::describe_engine_flags(args);
  expect_same_options(base, core::apply_engine_flags(args, base),
                      "no engine flag given");
}

TEST(EngineFlags, MalformedValuesThrowNamingTheFlag) {
  const std::pair<const char*, const char*> bad[] = {
      {"threads", "abc"},      {"threads", ""},
      {"machine", "hopper-mini"}, {"backend", "dense"},
      {"direction", "sideways"}, {"alpha", "1x"},
      {"beta", ""},            {"fault-seed", "-1"},
      {"straggler", "3"},      {"degrade-nic", "x:2"},
      {"fail-rate", "0.1.2"},  {"corrupt-rate", "high"},
      {"corrupt-mode", "bogus"}, {"fault-plan", "kill:x@level1"},
      {"checkpoint-every", "one"}, {"audit-every", "2.5"},
      {"recover-policy", "respawn"}, {"spare-ranks", "1e3"},
  };
  for (const auto& [key, value] : bad) {
    const std::string arg = std::string("--") + key + "=" + value;
    const auto args = parse({"prog", arg.c_str()});
    const std::string message = thrown_message(
        [&] { (void)core::apply_engine_flags(args, hopper_base()); });
    EXPECT_TRUE(starts_with(message, std::string("--") + key + ": "))
        << arg << ": " << message;
  }
}

TEST(EngineFlags, RejectsOutOfRangeValues) {
  // A count or cadence below 0 and a rate outside [0, 1] have no meaning:
  // each is rejected naming its flag, as a malformed number is.
  const std::pair<const char*, const char*> bad[] = {
      {"threads", "-2"},          {"checkpoint-every", "-1"},
      {"audit-every", "-4"},      {"spare-ranks", "-1"},
      {"fail-rate", "2"},         {"fail-rate", "-0.1"},
      {"fail-rate", "nan"},       {"corrupt-rate", "-0.5"},
      {"corrupt-rate", "1.0001"},
  };
  for (const auto& [key, value] : bad) {
    const std::string arg = std::string("--") + key + "=" + value;
    const auto args = parse({"prog", arg.c_str()});
    const std::string message = thrown_message(
        [&] { (void)core::apply_engine_flags(args, hopper_base()); });
    EXPECT_TRUE(starts_with(message, std::string("--") + key + ": "))
        << arg << ": " << message;
  }
  // The ends of each range stay valid, and --alpha/--beta <= 0 still
  // mean "derive the threshold from the machine model".
  const auto args =
      parse({"prog", "--threads=0", "--checkpoint-every=0", "--audit-every=0",
             "--spare-ranks=0", "--fail-rate=1", "--corrupt-rate=0",
             "--alpha=-1", "--beta=0"});
  const EngineOptions o = core::apply_engine_flags(args, hopper_base());
  EXPECT_EQ(o.threads_per_rank, 0);
  EXPECT_EQ(o.recover.checkpoint_every, 0);
  EXPECT_EQ(o.recover.audit_every, 0);
  EXPECT_EQ(o.recover.spare_ranks, 0);
  EXPECT_EQ(o.faults.collective_fail_rate, 1.0);
  EXPECT_EQ(o.faults.corrupt_rate, 0.0);
  EXPECT_EQ(o.alpha, -1.0);
  EXPECT_EQ(o.beta, 0.0);
}

TEST(EngineFlags, PaperAlgorithmsAreTheFourEngines) {
  EXPECT_EQ(core::parse_paper_algorithm("1d"), core::Algorithm::kOneDFlat);
  EXPECT_EQ(core::parse_paper_algorithm("1d-hybrid"),
            core::Algorithm::kOneDHybrid);
  EXPECT_EQ(core::parse_paper_algorithm("2d"), core::Algorithm::kTwoDFlat);
  EXPECT_EQ(core::parse_paper_algorithm("2d-hybrid"),
            core::Algorithm::kTwoDHybrid);
  for (const char* name : {"serial", "shared", "graph500-ref", "pbgl", "2D"}) {
    EXPECT_THROW((void)core::parse_paper_algorithm(name),
                 std::invalid_argument)
        << name;
  }
}

}  // namespace
}  // namespace dbfs::util
