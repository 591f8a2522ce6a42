// Concrete IR interpreter with simulated-OS intrinsics.
//
// SPEX-INJ (Section 3.1) must observe how the target system *actually*
// reacts to an injected misconfiguration: crash, hang, early termination,
// silent violation, silent ignorance, or a helpful error message. The
// interpreter supplies exactly those observables: traps (out-of-bounds
// writes are segfaults, like OpenLDAP's listener-threads crash), a step
// budget (runaway loops are hangs), exit codes, captured logs, final global
// values, and a record of which globals were ever read.
//
// Memory model (flat storage, built for campaign throughput):
//   - An RtValue is 16 trivially copyable bytes: a tag and one payload
//     word. Strings are interned (per-Interpreter StringPool), so moving a
//     value never allocates.
//   - Every storage root (a global or an alloca) has a layout computed from
//     its IR type: cell 0 is the root itself, then one cell per array
//     element followed by the element's struct fields, or one cell per
//     field of a struct. An address is (storage id, flat cell offset);
//     FieldAddr/IndexAddr step the offset within the layout.
//   - Globals live in one flat cell array. Each call frame keeps its
//     registers and its alloca cells in its own slot arrays, dropped on
//     return unless an address of the frame escaped (was stored as a value
//     or returned by its own frame); an escaped frame's cells are spilled
//     to interpreter-lifetime storage so stale reads stay exact.
//   - Paths the layout cannot index (indexing a scalar, depth 3 or more,
//     `p = &buf[1]; p[2]`, an out-of-range index) go to one sparse
//     overflow map keyed by (storage, interned path).
//   - Each function is compiled once, on first call, into a flat op array
//     whose operands are resolved register or constant slots (string
//     constants interned up front); intrinsic arguments come from a
//     reusable argument stack.
// Reset() restores the cached post-initializer image by vector copy, and
// TakeSnapshot()/RestoreSnapshot() extend the same trick to arbitrary
// execution points between calls — an injection campaign replays the
// shared template-parse prefix thousands of times. A restore copies a few
// vectors; beyond growing buffers smaller than the snapshot's, it
// allocates only for captured log lines, spilled frames and overflow
// paths.
#ifndef SPEX_INTERP_INTERPRETER_H_
#define SPEX_INTERP_INTERPRETER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/ir/ir.h"
#include "src/osim/os_simulator.h"
#include "src/support/cancellation.h"
#include "src/support/string_pool.h"

namespace spex {

// A runtime value: integer, float, string (possibly null), address, or a
// function reference (config-table handler slots). A string points into the
// pool of the interpreter that made it, so it lives as long as that
// interpreter. Only the payload member named by `kind` is meaningful.
struct RtValue {
  enum class Kind : uint8_t { kInt, kFloat, kString, kNull, kAddr, kFnRef };

  // kAddr payload: `storage` names a global (ids below the module's global
  // count) or a call frame; `offset` is a cell of that storage's flat
  // layout, or an overflow path (see Interpreter).
  struct Addr {
    uint32_t storage;
    uint32_t offset;
  };

  Kind kind = Kind::kInt;
  union {
    int64_t i = 0;          // kInt
    double f;               // kFloat
    const std::string* sp;  // kString / kFnRef: stable pooled pointer.
    Addr addr;              // kAddr
  };

  static RtValue Int(int64_t v);
  static RtValue Float(double v);
  static RtValue Null();
  // Wraps an already-interned payload (no hashing, no copy); build strings
  // with Interpreter::InternedString().
  static RtValue PooledStr(const std::string* sp);
  static RtValue PooledFnRef(const std::string* sp);

  // String payload; empty string for other kinds or a missing payload.
  const std::string& str() const;
  // True when both are strings or function references with the same
  // pooled payload (equal text, no character comparison needed).
  bool SamePayload(const RtValue& other) const;

  bool IsTruthy() const;
  // Floats convert like x86-64's cvttsd2si: NaN and out-of-range values
  // become INT64_MIN instead of host undefined behaviour.
  int64_t AsInt() const;
  double AsFloat() const;
  std::string ToDebugString() const;
};

static_assert(sizeof(RtValue) <= 16 && std::is_trivially_copyable_v<RtValue>);

struct InterpOptions {
  // Instruction budget; exceeding it classifies the run as a hang.
  int64_t max_steps = 2'000'000;
  // Call-depth budget; exceeding it is a stack-overflow trap.
  int max_call_depth = 200;
};

struct CallOutcome {
  enum class Status {
    kOk,         // Returned normally.
    kExit,       // Called exit(code).
    kTrap,       // Segfault / abort / division by zero / stack overflow.
    kHang,       // Step budget exhausted.
    kCancelled,  // The caller's CancelToken fired mid-execution. Unlike
                 // kHang this says nothing about the *target* — the
                 // request ran out of time, not the system under test.
  };
  Status status = Status::kOk;
  RtValue return_value;
  int64_t exit_code = 0;
  std::string trap_reason;

  bool ok() const { return status == Status::kOk; }
};

class Interpreter {
 private:
  // Flat cell layout of one storage root (see the file comment). Cell 0 is
  // the root; an array root has `elems` elements of 1 + `fields` cells
  // each (the element, then its struct fields); a struct root that is not
  // an array has `fields` field cells.
  struct Layout {
    const Value* root = nullptr;
    int64_t bound = 0;  // Element count checked on the first path step (<= 0: none).
    uint32_t base = 0;  // Cell 0's index in the owning cell array.
    uint32_t elems = 0;
    uint32_t fields = 0;
    uint32_t size = 1;

    static Layout For(const Value* root, const IrType* type, int64_t bound, uint32_t base);
    // The layout-relative cell one path step below cell `local`, or
    // kNoCell when the longer path does not fit the layout.
    uint32_t Step(uint32_t local, int64_t step) const;
    // Writes the path from the root to layout-relative cell `local` (at
    // most two steps) and returns its length.
    size_t PathOf(uint32_t local, int64_t (&steps)[2]) const;
  };
  // An interned path the layout of `root` cannot index: `root` is a global
  // id, or an alloca's index within its function.
  struct OverflowPath {
    uint32_t root = 0;
    std::vector<int64_t> steps;
    bool operator==(const OverflowPath& other) const = default;
  };
  struct OverflowPathHash {
    size_t operator()(const OverflowPath& path) const;
  };

  // The cells of a returned frame whose address escaped.
  struct SpilledFrame {
    uint32_t id = 0;
    uint32_t function = 0;  // Index into Module::functions().
    std::vector<RtValue> cells;
  };

 public:
  Interpreter(const Module& module, OsSimulator* os, InterpOptions options = {});
  ~Interpreter();

  // Re-initializes global storage from the cached initializer image, clears
  // logs, read-tracking and the step counter. Does not reset the OS.
  void Reset();

  // A copy of all mutable run state at the moment it is taken. Restoring it
  // resumes execution exactly where the snapshot was taken — the campaign
  // uses this to replay the shared template-parse prefix once per delta
  // key-set instead of once per misconfiguration. A snapshot may be
  // restored into a *different* Interpreter over the same Module, provided
  // the interpreter that took it stays alive (interned payloads point into
  // its pool).
  class Snapshot {
   public:
    Snapshot() = default;

    // Access-stamp maps at the moment the snapshot was taken (see
    // set_access_stamp); the campaign's hazard check intersects these with
    // the delta parse's dynamic accesses.
    const std::vector<int32_t>& read_stamps() const { return read_stamps_; }
    const std::vector<int32_t>& write_stamps() const { return write_stamps_; }

   private:
    friend class Interpreter;
    std::vector<RtValue> cells_;
    std::vector<SpilledFrame> spilled_;
    std::vector<OverflowPath> paths_;
    std::unordered_map<uint64_t, RtValue> overflow_;
    std::vector<int32_t> read_stamps_;
    std::vector<int32_t> write_stamps_;
    std::vector<std::string> logs_;
    int64_t steps_ = 0;
    int64_t os_ops_ = 0;
    int64_t stale_cell_ops_ = 0;
    uint32_t next_frame_id_ = 0;
    int32_t access_stamp_ = 1;
  };

  Snapshot TakeSnapshot() const;
  void RestoreSnapshot(const Snapshot& snapshot);

  // Calls a function by name. Args are matched positionally; missing args
  // default to 0 / null.
  CallOutcome Call(const std::string& function, std::vector<RtValue> args);

  // Interns `text` into this interpreter's pool — the way to build string
  // arguments for Call().
  RtValue InternedString(std::string_view text);

  // --- Observables.
  const std::vector<std::string>& logs() const { return logs_; }
  // Current value of a scalar global, or nullopt if it does not exist.
  std::optional<RtValue> ReadGlobal(const std::string& name) const;
  void WriteGlobal(const std::string& name, RtValue value);
  // Was the global's storage loaded since the last Reset()?
  bool GlobalWasRead(const std::string& name) const;
  int64_t steps_used() const { return steps_; }
  StringPool::Stats pool_stats() const { return pool_.stats(); }

  // --- Access stamping. Every load/store of a global root records the
  // current stamp against that global's slot, and every intrinsic that
  // consults the simulated OS bumps os_ops(). A driver that labels
  // execution segments with distinct stamps (the campaign stamps each
  // config entry's parse with its file position) can then ask which
  // segments read or wrote which globals — the conflict information the
  // snapshot-replay path needs to prove a reordered parse equivalent.
  void set_access_stamp(int32_t stamp) { access_stamp_ = stamp; }

  // --- Cooperative cancellation. When a token is set, the step-budget
  // path polls it every kCancelPollInterval steps (and every simulated
  // sleep); a fired token unwinds the current Call() with
  // Status::kCancelled. The token is borrowed, not owned — callers
  // (the campaign's replay driver) set it for the duration of one request
  // and clear it before returning the interpreter to a pool. Not part of
  // snapshots: cancellation is request state, not run state.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }
  const std::vector<int32_t>& global_read_stamps() const { return global_read_stamps_; }
  const std::vector<int32_t>& global_write_stamps() const { return global_write_stamps_; }
  int64_t os_ops() const { return os_ops_; }
  // Cell accesses through an address whose owning frame is no longer on
  // the call stack — i.e. through an escaped &local. These cells persist
  // in spilled storage across Call()s but are not covered by the
  // per-global stamps, so the campaign treats stale traffic on both sides
  // of a reordering as a conflict.
  int64_t stale_cell_ops() const { return stale_cell_ops_; }
  size_t log_count() const { return logs_.size(); }

 private:
  // Enum dispatch for the simulated C-library/OS surface; call sites are
  // resolved to an IntrinsicId once, when their function is compiled,
  // instead of walking a string-compare chain per call.
  enum class IntrinsicId : uint8_t {
    kNone,  // Unresolved external: trap.
    kStrcmp,
    kStrcasecmp,
    kStrncmp,
    kStrncasecmp,
    kStrlen,
    kStrdup,
    kCanonicalizePath,
    kTolowerStr,
    kToupperStr,
    kStrchr,
    kStrstr,
    kAtoi,
    kAtol,
    kStrtod,
    kSscanf,
    kParseIntStrict,
    kOpen,
    kFopen,
    kOpendir,
    kAccess,
    kUnlink,
    kMkdir,
    kChdir,
    kChown,
    kRetZero,  // chmod/umask/close/read/write/free/listen/set_buffer_size/daemonize.
    kSocket,
    kBind,
    kConnect,
    kHtons,
    kHtonl,
    kInetAddr,
    kInetAton,
    kGethostbyname,
    kGetpwnam,
    kGetgrnam,
    kSetuidUser,
    kSleep,
    kUsleep,
    kPollWait,
    kTime,
    kMalloc,
    kExit,
    kAbort,
    kPrintf,
    kFprintf,
    kSprintf,
    kLogInfo,
    kLogWarn,
    kLogError,
    kLogFatal,
    kInvokeHandler,
  };

  // One function compiled for execution (built on first call).
  struct Op;
  struct FunctionPlan;

  struct Frame {
    const FunctionPlan* plan = nullptr;
    uint32_t id = 0;       // Storage id of this frame's cells.
    bool escaped = false;  // An address of this frame was stored or returned.
    bool overflowed = false;  // The overflow map holds cells of this frame.
    std::vector<RtValue> regs;   // Indexed by Value::id().
    std::vector<RtValue> cells;  // Alloca cells, laid out by the plan.
  };
  class TrapError {
   public:
    explicit TrapError(std::string reason) : reason_(std::move(reason)) {}
    const std::string& reason() const { return reason_; }

   private:
    std::string reason_;
  };
  class ExitRequest {
   public:
    explicit ExitRequest(int64_t code) : code_(code) {}
    int64_t code() const { return code_; }

   private:
    int64_t code_;
  };
  class HangError {};
  class CancelError {};

  // How many steps run between cancel-token polls: rare enough that the
  // poll (one relaxed load; a clock read when a deadline is armed) is
  // invisible next to the interpreter's per-step work, frequent enough
  // that a runaway loop is interrupted within ~microseconds.
  static constexpr int64_t kCancelPollInterval = 1024;

  static IntrinsicId IntrinsicNamed(std::string_view name);
  void BuildModuleIndex();
  void BuildInitImage();
  RtValue DefaultValueFor(const IrType* type) const;

  // Index into Module::functions() of the callable definition named
  // `name`, or -1.
  int32_t LookupFunction(std::string_view name) const;
  // Global id of the global named `name`, or -1.
  int32_t LookupGlobal(const std::string& name) const;
  const FunctionPlan& PlanFor(uint32_t function);
  std::unique_ptr<FunctionPlan> BuildPlan(uint32_t function);

  // Runs `function` with its arguments at arg_stack_[args_base, +argc).
  RtValue RunFunction(uint32_t function, size_t args_base, size_t argc);
  RtValue Intrinsic(IntrinsicId id, const Instruction* instr, size_t args_base, size_t argc);

  // --- Memory.
  Frame& PushFrame(const FunctionPlan& plan);
  void PopFrame();
  // Pops every live frame (trap/exit/hang unwinding skips the returns).
  void UnwindFrames();
  Frame* LiveFrame(uint32_t id);
  SpilledFrame* FindSpilled(uint32_t id);
  // The plan of a live or spilled frame; traps on a dangling frame id.
  const FunctionPlan& FramePlan(uint32_t storage);
  // Layout of root `root` (a global id, or an alloca index) of `storage`.
  const Layout& RootLayout(uint32_t storage, uint32_t root);
  // The address one FieldAddr/IndexAddr step below `base`.
  RtValue StepAddress(RtValue base, int64_t step);
  uint32_t InternOverflowPath(OverflowPath path);
  void RebuildOverflowIndex();
  // Traps when an overflow address's first path step is outside its
  // root's array bound (in-layout cells are in bounds by construction).
  void CheckBounds(uint32_t storage, uint32_t offset, const Instruction* at);
  // The cell an address names; nullptr for an overflow cell that was never
  // written (reads then default by leaf type). Performs the bounds check,
  // stale-access counting and global stamping of one access.
  RtValue* ResolveCell(const RtValue& addr, const Instruction* at, bool write);
  RtValue LoadCell(const RtValue& addr, const Instruction* at);
  void StoreCell(const RtValue& addr, const RtValue& value, const Instruction* at);
  // Marks the live frame of a stored address as escaped.
  void NoteStoredAddress(const RtValue& value);
  // Default value of an untouched cell, derived from the leaf type.
  RtValue DefaultCellValue(const Value* root, std::span<const int64_t> steps) const;
  RtValue DefaultCellValue(const Layout& layout, uint32_t local) const;

  void Step();
  void AppendLog(std::string level, const std::string& message);
  std::string FormatMessage(const std::string& format, std::span<const RtValue> args,
                            size_t first_arg) const;

  const Module& module_;
  OsSimulator* os_;
  InterpOptions options_;
  const CancelToken* cancel_ = nullptr;  // Borrowed; see set_cancel_token.

  // --- Per-instance interned-string pool. Append-only with stable
  // addresses; RtValues built by this interpreter point into it.
  StringPool pool_;

  // --- Module-derived indexes, built once per Interpreter (the module is
  // immutable). Function/global lookup by name is hashed; Module::Find* is
  // a linear scan and far too slow for the call path.
  std::unordered_map<std::string_view, int32_t> functions_by_name_;
  std::unordered_map<std::string, uint32_t> globals_by_name_;
  std::unordered_map<const Value*, uint32_t> global_slot_;
  std::vector<Layout> global_layouts_;  // Global id -> layout in global_cells_.
  uint32_t num_globals_ = 0;            // Storage ids below this are globals.
  // Function index -> compiled plan, built on first call.
  std::vector<std::unique_ptr<FunctionPlan>> plans_;

  // --- Cached post-initializer image; Reset() restores by copy.
  std::vector<RtValue> init_cells_;
  std::vector<OverflowPath> init_paths_;
  std::unordered_map<uint64_t, RtValue> init_overflow_;

  // --- Mutable run state.
  std::vector<RtValue> global_cells_;
  // Global id -> stamp of the last load/store through that global root
  // since Reset() (0 = untouched); GlobalWasRead() is stamp != 0.
  std::vector<int32_t> global_read_stamps_;
  std::vector<int32_t> global_write_stamps_;
  std::vector<SpilledFrame> spilled_;  // Sorted by id.
  // The only hashed cell structure: (storage << 32 | path id) -> cell.
  std::unordered_map<uint64_t, RtValue> overflow_cells_;
  std::vector<OverflowPath> overflow_paths_;  // Path id -> path.
  std::unordered_map<OverflowPath, uint32_t, OverflowPathHash> overflow_path_ids_;
  std::vector<std::string> logs_;
  std::deque<Frame> frames_;  // The live call chain, innermost last.
  // Recycled register and cell arrays, so a call allocates nothing.
  std::vector<std::vector<RtValue>> buffer_pool_;
  std::vector<RtValue> arg_stack_;  // Call arguments in flight.
  int64_t steps_ = 0;
  int64_t os_ops_ = 0;  // Intrinsic calls that consulted the simulated OS.
  int64_t stale_cell_ops_ = 0;
  uint32_t next_frame_id_ = 0;
  int32_t access_stamp_ = 1;
  int call_depth_ = 0;
};

}  // namespace spex

#endif  // SPEX_INTERP_INTERPRETER_H_
