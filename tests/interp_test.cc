// Interpreter tests: execution semantics, traps, hangs, logs, intrinsics.
#include "src/interp/interpreter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <type_traits>

#include "src/ir/lowering.h"
#include "src/lang/parser.h"

namespace spex {
namespace {

struct Sut {
  DiagnosticEngine diags;
  std::unique_ptr<Module> module;
  OsSimulator os = OsSimulator::StandardEnvironment();
  std::unique_ptr<Interpreter> interp;

  explicit Sut(std::string_view source, InterpOptions options = {}) {
    auto unit = ParseSource(source, "sut.c", &diags);
    EXPECT_FALSE(diags.HasErrors()) << diags.Render();
    module = LowerToIr(*unit, &diags);
    EXPECT_FALSE(diags.HasErrors()) << diags.Render();
    interp = std::make_unique<Interpreter>(*module, &os, options);
  }

  CallOutcome Call(const std::string& fn, std::vector<RtValue> args = {}) {
    return interp->Call(fn, std::move(args));
  }

  RtValue Str(std::string_view text) { return interp->InternedString(text); }
};

TEST(InterpTest, ArithmeticAndControlFlow) {
  Sut sut(R"(
    int collatz_steps(int n) {
      int steps = 0;
      while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps++;
      }
      return steps;
    }
  )");
  CallOutcome outcome = sut.Call("collatz_steps", {RtValue::Int(27)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.return_value.AsInt(), 111);
}

TEST(InterpTest, GlobalsInitializedAndMutable) {
  Sut sut(R"(
    int counter = 10;
    int bump(int by) { counter = counter + by; return counter; }
  )");
  EXPECT_EQ(sut.interp->ReadGlobal("counter")->AsInt(), 10);
  sut.Call("bump", {RtValue::Int(5)});
  EXPECT_EQ(sut.interp->ReadGlobal("counter")->AsInt(), 15);
  sut.interp->Reset();
  EXPECT_EQ(sut.interp->ReadGlobal("counter")->AsInt(), 10);
}

TEST(InterpTest, StructTableThroughPointerStores) {
  // The struct-direct parse pattern: write through a table pointer.
  Sut sut(R"(
    struct config_int { char *name; int *variable; };
    int timeout = 30;
    struct config_int table[] = { { "timeout", &timeout } };
    int set_option(char *key, char *value) {
      int i;
      for (i = 0; i < 1; i++) {
        if (!strcmp(table[i].name, key)) {
          *table[i].variable = atoi(value);
          return 0;
        }
      }
      return -1;
    }
  )");
  CallOutcome outcome = sut.Call("set_option", {sut.Str("timeout"), sut.Str("99")});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.return_value.AsInt(), 0);
  EXPECT_EQ(sut.interp->ReadGlobal("timeout")->AsInt(), 99);
}

TEST(InterpTest, ArrayOutOfBoundsIsSegfault) {
  Sut sut(R"(
    int slots[16];
    int fill(int n) {
      int i;
      for (i = 0; i < n; i++) { slots[i] = 1; }
      return 0;
    }
  )");
  EXPECT_TRUE(sut.Call("fill", {RtValue::Int(16)}).ok());
  CallOutcome crash = sut.Call("fill", {RtValue::Int(17)});
  EXPECT_EQ(crash.status, CallOutcome::Status::kTrap);
  EXPECT_NE(crash.trap_reason.find("Segmentation fault"), std::string::npos);
}

TEST(InterpTest, DivisionByZeroTraps) {
  Sut sut("int divide(int a, int b) { return a / b; }");
  CallOutcome outcome = sut.Call("divide", {RtValue::Int(10), RtValue::Int(0)});
  EXPECT_EQ(outcome.status, CallOutcome::Status::kTrap);
}

TEST(InterpTest, NullStringToStrcmpTraps) {
  Sut sut(R"(
    char *name;
    int check() { return strcmp(name, "x"); }
  )");
  CallOutcome outcome = sut.Call("check");
  EXPECT_EQ(outcome.status, CallOutcome::Status::kTrap);
}

TEST(InterpTest, InfiniteLoopIsHang) {
  InterpOptions options;
  options.max_steps = 10000;
  Sut sut("int spin() { int i = 1; while (i != 0) { i = i + 1; } return 0; }", options);
  CallOutcome outcome = sut.Call("spin");
  EXPECT_EQ(outcome.status, CallOutcome::Status::kHang);
}

TEST(InterpTest, HugeSleepIsHang) {
  Sut sut("int nap(int s) { sleep(s); return 0; }");
  EXPECT_TRUE(sut.Call("nap", {RtValue::Int(60)}).ok());
  CallOutcome outcome = sut.Call("nap", {RtValue::Int(999999999)});
  EXPECT_EQ(outcome.status, CallOutcome::Status::kHang);
}

TEST(InterpTest, ExitPropagates) {
  Sut sut("int die() { exit(3); return 0; }");
  CallOutcome outcome = sut.Call("die");
  EXPECT_EQ(outcome.status, CallOutcome::Status::kExit);
  EXPECT_EQ(outcome.exit_code, 3);
}

TEST(InterpTest, AtoiSemantics) {
  Sut sut("int conv(char *s) { return atoi(s); }");
  EXPECT_EQ(sut.Call("conv", {sut.Str("42")}).return_value.AsInt(), 42);
  // Prefix parse: garbage after digits is ignored (the "1O0" -> 1 case).
  EXPECT_EQ(sut.Call("conv", {sut.Str("1O0")}).return_value.AsInt(), 1);
  EXPECT_EQ(sut.Call("conv", {sut.Str("abc")}).return_value.AsInt(), 0);
  // 32-bit wraparound on overflow.
  EXPECT_EQ(sut.Call("conv", {sut.Str("9000000000")}).return_value.AsInt(),
            static_cast<int32_t>(9000000000LL));
}

TEST(InterpTest, StrncmpSemantics) {
  Sut sut(R"(
    int pre(char *a, char *b, int n) { return strncmp(a, b, n); }
    int prei(char *a, char *b, int n) { return strncasecmp(a, b, n); }
  )");
  auto cmp = [&](const char* fn, const char* a, const char* b, int64_t n) {
    return sut.Call(fn, {sut.Str(a), sut.Str(b), RtValue::Int(n)})
        .return_value.AsInt();
  };
  EXPECT_EQ(cmp("pre", "timeout_ms", "timeout_s", 8), 0);
  EXPECT_LT(cmp("pre", "timeout_ms", "timeout_s", 9), 0);
  EXPECT_EQ(cmp("prei", "TimeOut", "timeout!", 7), 0);
  EXPECT_EQ(cmp("pre", "abc", "abd", 0), 0);
  // A negative count converts to a huge size_t in C: full-string compare.
  EXPECT_LT(cmp("pre", "abc", "abd", -1), 0);
  EXPECT_NE(cmp("prei", "abc", "abcd", -1), 0);
}

TEST(InterpTest, ParseIntStrictRejectsGarbage) {
  Sut sut(R"(
    int out;
    int conv(char *s) { return parse_int_strict(s, &out); }
  )");
  EXPECT_EQ(sut.Call("conv", {sut.Str("42")}).return_value.AsInt(), 0);
  EXPECT_EQ(sut.interp->ReadGlobal("out")->AsInt(), 42);
  EXPECT_EQ(sut.Call("conv", {sut.Str("1O0")}).return_value.AsInt(), -1);
  EXPECT_EQ(sut.Call("conv", {sut.Str("9G")}).return_value.AsInt(), -1);
}

TEST(InterpTest, FileIntrinsicsUseSimulatedFs) {
  Sut sut("int try_open(char *p) { return open(p, 0); }");
  EXPECT_GE(sut.Call("try_open", {sut.Str("/etc/mime.types")}).return_value.AsInt(), 0);
  EXPECT_LT(sut.Call("try_open", {sut.Str("/nope")}).return_value.AsInt(), 0);
  EXPECT_LT(sut.Call("try_open", {sut.Str("/var")}).return_value.AsInt(), 0);  // EISDIR
  EXPECT_LT(sut.Call("try_open", {sut.Str("/etc/secret.key")}).return_value.AsInt(), 0);
}

TEST(InterpTest, BindChecksPortAvailability) {
  Sut sut("int try_bind(int p) { int fd = socket(); return bind(fd, p); }");
  EXPECT_EQ(sut.Call("try_bind", {RtValue::Int(8080)}).return_value.AsInt(), 0);
  EXPECT_EQ(sut.Call("try_bind", {RtValue::Int(22)}).return_value.AsInt(), -1);  // occupied
  EXPECT_EQ(sut.Call("try_bind", {RtValue::Int(70000)}).return_value.AsInt(), -1);
  EXPECT_EQ(sut.Call("try_bind", {RtValue::Int(-1)}).return_value.AsInt(), -1);
}

TEST(InterpTest, LogsCapturedWithFormatting) {
  Sut sut(R"(
    int report(int v) { log_error("value %d out of range for %s", v, "timeout"); return 0; }
  )");
  sut.Call("report", {RtValue::Int(300)});
  ASSERT_EQ(sut.interp->logs().size(), 1u);
  EXPECT_EQ(sut.interp->logs()[0], "ERROR: value 300 out of range for timeout");
}

TEST(InterpTest, GlobalReadTracking) {
  Sut sut(R"(
    int master = 0;
    int dependent = 5;
    int run() {
      if (master != 0) { return dependent + 1; }
      return 0;
    }
  )");
  sut.Call("run");
  EXPECT_TRUE(sut.interp->GlobalWasRead("master"));
  EXPECT_FALSE(sut.interp->GlobalWasRead("dependent"));  // Guard was off.
  sut.interp->Reset();
  sut.interp->WriteGlobal("master", RtValue::Int(1));
  sut.Call("run");
  EXPECT_TRUE(sut.interp->GlobalWasRead("dependent"));
}

TEST(InterpTest, HandlerInvocationThroughTable) {
  Sut sut(R"(
    struct command_rec { char *name; char *handler; };
    int stored;
    int set_stored(char *arg) { stored = atoi(arg); return 0; }
    struct command_rec cmds[] = { { "Stored", set_stored } };
    int dispatch(char *key, char *value) {
      int i;
      for (i = 0; i < 1; i++) {
        if (!strcasecmp(cmds[i].name, key)) {
          return invoke_handler1(cmds[i].handler, value);
        }
      }
      return -1;
    }
  )");
  CallOutcome outcome = sut.Call("dispatch", {sut.Str("stored"), sut.Str("7")});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(sut.interp->ReadGlobal("stored")->AsInt(), 7);
}

TEST(InterpTest, RecursionDepthLimited) {
  Sut sut("int rec(int n) { return rec(n + 1); }");
  CallOutcome outcome = sut.Call("rec", {RtValue::Int(0)});
  EXPECT_EQ(outcome.status, CallOutcome::Status::kTrap);
  EXPECT_NE(outcome.trap_reason.find("stack overflow"), std::string::npos);
}

TEST(InterpTest, AllocationBudget) {
  Sut sut("long grab(long n) { return alloc_buffer(n); }");
  EXPECT_GT(sut.Call("grab", {RtValue::Int(1024)}).return_value.AsInt(), 0);
  EXPECT_EQ(sut.Call("grab", {RtValue::Int(-1)}).return_value.AsInt(), 0);
  EXPECT_EQ(sut.Call("grab", {RtValue::Int(9000000000LL)}).return_value.AsInt(), 0);
}

TEST(InterpTest, DeterministicAcrossRuns) {
  const char* source = R"(
    int acc = 0;
    int work() {
      int i;
      for (i = 0; i < 100; i++) { acc = acc * 31 + i; }
      return acc;
    }
  )";
  Sut a(source);
  Sut b(source);
  EXPECT_EQ(a.Call("work").return_value.AsInt(), b.Call("work").return_value.AsInt());
  EXPECT_EQ(a.interp->steps_used(), b.interp->steps_used());
}

TEST(InterpTest, ResetRestoresCachedGlobalsImage) {
  // Exercises every initializer shape the cached image must restore:
  // scalar defaults, scalar inits, strings, arrays, struct tables with
  // global references, and handler tables with function references.
  const char* source = R"(
    struct config_int { char *name; int *variable; };
    struct command_rec { char *name; char *handler; };
    int timeout = 30;
    int workers;
    char *listen_host = "localhost";
    int weights[] = { 2, 4, 8 };
    struct config_int table[] = { { "timeout", &timeout } };
    int stored = 1;
    int set_stored(char *arg) { stored = atoi(arg); return 0; }
    struct command_rec cmds[] = { { "Stored", set_stored } };
    int mutate(char *value) {
      int i;
      timeout = 999;
      workers = 7;
      listen_host = "elsewhere";
      for (i = 0; i < 3; i++) { weights[i] = 0; }
      *table[0].variable = 1234;
      log_warn("state mutated");
      return invoke_handler1(cmds[0].handler, value);
    }
    int read_weight(int i) { return weights[i]; }
  )";
  Sut mutated(source);
  ASSERT_TRUE(mutated.Call("mutate", {mutated.Str("55")}).ok());
  EXPECT_EQ(mutated.interp->ReadGlobal("timeout")->AsInt(), 1234);
  EXPECT_EQ(mutated.interp->ReadGlobal("stored")->AsInt(), 55);
  EXPECT_FALSE(mutated.interp->logs().empty());
  mutated.interp->Reset();

  // After Reset() the mutated interpreter must be indistinguishable from a
  // freshly constructed one, observable by observable.
  Sut fresh(source);
  for (const char* global : {"timeout", "workers", "listen_host", "stored"}) {
    auto restored = mutated.interp->ReadGlobal(global);
    auto pristine = fresh.interp->ReadGlobal(global);
    ASSERT_TRUE(restored.has_value()) << global;
    ASSERT_TRUE(pristine.has_value()) << global;
    EXPECT_EQ(restored->kind, pristine->kind) << global;
    EXPECT_EQ(restored->ToDebugString(), pristine->ToDebugString()) << global;
    EXPECT_FALSE(mutated.interp->GlobalWasRead(global)) << global;
  }
  EXPECT_EQ(mutated.interp->ReadGlobal("timeout")->AsInt(), 30);
  EXPECT_EQ(mutated.interp->ReadGlobal("workers")->AsInt(), 0);
  EXPECT_TRUE(mutated.interp->logs().empty());
  EXPECT_EQ(mutated.interp->steps_used(), 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(mutated.Call("read_weight", {RtValue::Int(i)}).return_value.AsInt(),
              fresh.Call("read_weight", {RtValue::Int(i)}).return_value.AsInt());
  }
  // The restored handler/table references still work end to end.
  ASSERT_TRUE(mutated.Call("mutate", {mutated.Str("77")}).ok());
  EXPECT_EQ(mutated.interp->ReadGlobal("stored")->AsInt(), 77);
}

// --- Memory model. These pin the cell semantics every replay relies on:
// escaped &locals, pointer arithmetic on element addresses, deep paths,
// type-derived defaults and the out-of-bounds trap text.

TEST(InterpMemoryTest, LocalAddressStoredToGlobalOutlivesItsFrame) {
  Sut sut(R"(
    int *g;
    int leak() { int x = 41; g = &x; return 0; }
    int peek() { return *g; }
  )");
  ASSERT_TRUE(sut.Call("leak").ok());
  EXPECT_EQ(sut.interp->stale_cell_ops(), 0);
  CallOutcome outcome = sut.Call("peek");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.return_value.AsInt(), 41);
  EXPECT_EQ(sut.interp->stale_cell_ops(), 1);
}

TEST(InterpMemoryTest, LocalAddressReturnedFromItsOwnFrame) {
  Sut sut(R"(
    int *make(int v) { int x = v; return &x; }
    int use() { return *make(6) + 1; }
  )");
  CallOutcome outcome = sut.Call("use");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.return_value.AsInt(), 7);
  EXPECT_EQ(sut.interp->stale_cell_ops(), 1);
}

TEST(InterpMemoryTest, EscapedLocalSurvivesExitUnwinding) {
  Sut sut(R"(
    int *g;
    int leak_then_exit() { int x = 41; g = &x; exit(2); return 0; }
    int peek() { return *g; }
  )");
  CallOutcome died = sut.Call("leak_then_exit");
  ASSERT_EQ(died.status, CallOutcome::Status::kExit);
  CallOutcome outcome = sut.Call("peek");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.return_value.AsInt(), 41);
  EXPECT_EQ(sut.interp->stale_cell_ops(), 1);
}

TEST(InterpMemoryTest, SnapshotWithEscapedCellRestoresIntoAnotherInterpreter) {
  Sut sut(R"(
    int *g;
    int leak(int v) { int x = v; g = &x; return 0; }
    int peek() { return *g; }
  )");
  ASSERT_TRUE(sut.Call("leak", {RtValue::Int(41)}).ok());
  Interpreter::Snapshot snapshot = sut.interp->TakeSnapshot();
  // The taking interpreter moves on; the snapshot must not follow it.
  ASSERT_TRUE(sut.Call("leak", {RtValue::Int(99)}).ok());
  EXPECT_EQ(sut.Call("peek").return_value.AsInt(), 99);

  OsSimulator os = OsSimulator::StandardEnvironment();
  Interpreter other(*sut.module, &os);
  other.RestoreSnapshot(snapshot);
  CallOutcome outcome = other.Call("peek", {});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.return_value.AsInt(), 41);
  EXPECT_EQ(other.stale_cell_ops(), 1);

  sut.interp->RestoreSnapshot(snapshot);
  EXPECT_EQ(sut.Call("peek").return_value.AsInt(), 41);
}

TEST(InterpMemoryTest, IndexingAnElementAddressExtendsThePath) {
  // p = &buf[1]; p[2] names the cell [1, 2], not buf[3] (no flattening).
  Sut sut(R"(
    int buf[8];
    int poke() { int *p = &buf[1]; p[2] = 5; return buf[3]; }
    int peek() { int *p = &buf[1]; return p[2]; }
    int local_poke() { int b[4]; int *p = &b[1]; p[2] = 5; return b[3] * 10 + p[2]; }
  )");
  CallOutcome poked = sut.Call("poke");
  ASSERT_TRUE(poked.ok());
  EXPECT_EQ(poked.return_value.AsInt(), 0);
  EXPECT_EQ(sut.Call("peek").return_value.AsInt(), 5);
  EXPECT_EQ(sut.Call("local_poke").return_value.AsInt(), 5);
}

TEST(InterpMemoryTest, DepthThreePathsAreDistinctCells) {
  Sut sut(R"(
    struct inner { int a; int b; };
    struct outer { int tag; struct inner in; };
    struct outer rows[2];
    int set(int v) { rows[1].in.a = v; rows[1].in.b = v + 1; rows[0].in.a = v + 2; return 0; }
    int get() { return rows[1].in.a * 10000 + rows[1].in.b * 100 + rows[0].in.a; }
    int far() { return rows[5].in.a; }
  )");
  ASSERT_TRUE(sut.Call("set", {RtValue::Int(3)}).ok());
  EXPECT_EQ(sut.Call("get").return_value.AsInt(), 3 * 10000 + 4 * 100 + 5);
  // Bounds are checked on the first path step only.
  CallOutcome far = sut.Call("far");
  EXPECT_EQ(far.status, CallOutcome::Status::kTrap);
  EXPECT_NE(far.trap_reason.find("array index 5 out of bounds 0..1"), std::string::npos)
      << far.trap_reason;
}

TEST(InterpMemoryTest, UntouchedCellsDefaultByLeafType) {
  Sut sut(R"(
    struct rec { int n; double ratio; char *name; int *ptr; };
    struct rec r;
    struct rec recs[2];
    double ratios[4];
    int global_name() { log_info("name=%s ptr=%s n=%d", r.name, r.ptr, r.n); return 0; }
    int global_ptr_is_null() { if (r.ptr == NULL) { return 1; } return 0; }
    double global_ratio() { return r.ratio / r.ratio; }
    double element_ratio() { return ratios[2] / ratios[2]; }
    int local_name() {
      struct rec l;
      log_info("name=%s ptr=%s n=%d", l.name, l.ptr, l.n);
      return 0;
    }
    double local_ratio() { struct rec l; return l.ratio / l.ratio; }
    int array_name() {
      log_info("name=%s ptr=%s n=%d", recs[1].name, recs[1].ptr, recs[1].n);
      return 0;
    }
    double array_ratio() { return recs[0].ratio / recs[0].ratio; }
    double local_array_ratio() { struct rec ls[2]; return ls[0].ratio / ls[0].ratio; }
  )");
  ASSERT_TRUE(sut.Call("global_name").ok());
  ASSERT_TRUE(sut.Call("local_name").ok());
  ASSERT_TRUE(sut.Call("array_name").ok());
  ASSERT_EQ(sut.interp->logs().size(), 3u);
  EXPECT_EQ(sut.interp->logs()[0], "INFO: name=(null) ptr=(null) n=0");
  EXPECT_EQ(sut.interp->logs()[1], "INFO: name=(null) ptr=(null) n=0");
  // An array's first path step is the element index, not a field.
  EXPECT_EQ(sut.interp->logs()[2], "INFO: name=(null) ptr=(null) n=0");
  EXPECT_EQ(sut.Call("global_ptr_is_null").return_value.AsInt(), 1);
  // A float cell divides on the float path, whose trap text differs from
  // the integer path's: the untouched cell is a 0.0, not an integer 0.
  for (const char* fn :
       {"global_ratio", "element_ratio", "local_ratio", "array_ratio", "local_array_ratio"}) {
    CallOutcome outcome = sut.Call(fn);
    EXPECT_EQ(outcome.status, CallOutcome::Status::kTrap) << fn;
    EXPECT_EQ(outcome.trap_reason, "Floating point exception (division by zero)") << fn;
  }
}

TEST(InterpMemoryTest, OutOfBoundsTrapTextIsExact) {
  Sut sut("int slots[4];\nint poke(int i) { slots[i] = 1; return 0; }\n"
          "int local(int i) { int b[3]; return b[i]; }\n");
  EXPECT_TRUE(sut.Call("poke", {RtValue::Int(3)}).ok());
  CallOutcome high = sut.Call("poke", {RtValue::Int(4)});
  EXPECT_EQ(high.status, CallOutcome::Status::kTrap);
  EXPECT_EQ(high.trap_reason, "Segmentation fault (array index 4 out of bounds 0..3 at sut.c:2:28)");
  CallOutcome low = sut.Call("local", {RtValue::Int(-1)});
  EXPECT_EQ(low.status, CallOutcome::Status::kTrap);
  EXPECT_EQ(low.trap_reason, "Segmentation fault (array index -1 out of bounds 0..2 at sut.c:3:38)");
}

// --- MiniC integer semantics: defined results where the host C++ operation
// would be undefined behaviour (or a SIGFPE) on a config-derived value.

TEST(InterpIntegerTest, AddSubMulWrapInTwosComplement) {
  Sut sut(R"(
    long add(long a, long b) { return a + b; }
    long sub(long a, long b) { return a - b; }
    long mul(long a, long b) { return a * b; }
  )");
  auto run = [&](const char* fn, int64_t a, int64_t b) {
    CallOutcome outcome = sut.Call(fn, {RtValue::Int(a), RtValue::Int(b)});
    EXPECT_TRUE(outcome.ok()) << fn << ": " << outcome.trap_reason;
    return outcome.return_value.AsInt();
  };
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(run("add", kMax, 1), kMin);
  EXPECT_EQ(run("sub", kMin, 1), kMax);
  EXPECT_EQ(run("mul", 841048816911995911LL, 31), 7625769250562321625LL);
  EXPECT_EQ(run("mul", kMin, -1), kMin);
}

TEST(InterpIntegerTest, MinDividedByMinusOneTraps) {
  Sut sut(R"(
    long quot(long a, long b) { return a / b; }
    long rem(long a, long b) { return a % b; }
  )");
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  for (const char* fn : {"quot", "rem"}) {
    CallOutcome outcome = sut.Call(fn, {RtValue::Int(kMin), RtValue::Int(-1)});
    EXPECT_EQ(outcome.status, CallOutcome::Status::kTrap) << fn;
    EXPECT_EQ(outcome.trap_reason, "Floating point exception (integer division overflow)") << fn;
  }
  EXPECT_EQ(sut.Call("quot", {RtValue::Int(kMin + 1), RtValue::Int(-1)}).return_value.AsInt(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(sut.Call("rem", {RtValue::Int(-7), RtValue::Int(2)}).return_value.AsInt(), -1);
}

TEST(InterpIntegerTest, ShiftCountsOutsideTheWordGiveZero) {
  Sut sut(R"(
    long shl(long a, long b) { return a << b; }
    long shr(long a, long b) { return a >> b; }
  )");
  auto run = [&](const char* fn, int64_t a, int64_t b) {
    return sut.Call(fn, {RtValue::Int(a), RtValue::Int(b)}).return_value.AsInt();
  };
  EXPECT_EQ(run("shl", 5, -1), 0);
  EXPECT_EQ(run("shr", 5, -1), 0);
  EXPECT_EQ(run("shl", 5, 64), 0);
  EXPECT_EQ(run("shr", -5, 64), 0);
  EXPECT_EQ(run("shl", 1, 63), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(run("shl", -3, 2), -12);
  EXPECT_EQ(run("shr", -8, 1), -4);
}

TEST(InterpIntegerTest, PrefixParseOfOverlongDigitsWraps) {
  Sut sut(R"(
    long conv_l(char *s) { return atol(s); }
    int conv_i(char *s) { return atoi(s); }
  )");
  auto run = [&](const char* fn, const char* text) {
    return sut.Call(fn, {sut.Str(text)}).return_value.AsInt();
  };
  // 99999999999999999999 mod 2^64.
  EXPECT_EQ(run("conv_l", "99999999999999999999"), 7766279631452241919LL);
  EXPECT_EQ(run("conv_i", "99999999999999999999"), 1661992959);
  EXPECT_EQ(run("conv_l", "-9223372036854775808"), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(run("conv_l", "9223372036854775808"), std::numeric_limits<int64_t>::min());
}

TEST(InterpIntegerTest, OutOfRangeFloatConvertsToMinInt) {
  Sut sut(R"(
    long to_long(double d) { return (long) d; }
    long parsed(char *s) { return (long) strtod(s); }
  )");
  auto run = [&](RtValue arg) { return sut.Call("to_long", {arg}).return_value.AsInt(); };
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(run(RtValue::Float(1e300)), kMin);
  EXPECT_EQ(run(RtValue::Float(-1e300)), kMin);
  EXPECT_EQ(run(RtValue::Float(std::nan(""))), kMin);
  EXPECT_EQ(run(RtValue::Float(-9223372036854775808.0)), kMin);
  EXPECT_EQ(run(RtValue::Float(-2.9)), -2);
  EXPECT_EQ(sut.Call("parsed", {sut.Str("1e400")}).return_value.AsInt(), kMin);
}

TEST(InterpTest, RuntimeValueIsSixteenTriviallyCopyableBytes) {
  static_assert(sizeof(RtValue) == 16);
  static_assert(std::is_trivially_copyable_v<RtValue>);
  // The payload is a union: a string comparison fast path must not mistake
  // an integer for a pooled pointer.
  StringPool pool;
  RtValue text = RtValue::PooledStr(pool.Intern("x"));
  RtValue number = RtValue::Int(static_cast<int64_t>(reinterpret_cast<intptr_t>(text.sp)));
  EXPECT_FALSE(text.SamePayload(number));
  EXPECT_EQ(number.str(), "");
  EXPECT_TRUE(text.SamePayload(RtValue::PooledStr(pool.Intern("x"))));
}

}  // namespace
}  // namespace spex
