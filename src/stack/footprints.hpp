// Calibrated code/data footprints for the mini-stack (see DESIGN.md §2).
//
// The paper measured a NetBSD/Alpha kernel with an instruction-level
// simulator. We cannot rerun a 1995 kernel, so the mini-stack carries a
// footprint model instead: every function on the receive path is
// registered with the byte size published in the paper's Figure 1
// (tcp_input = 11872 bytes, in_cksum = 1104, ...) and an executed-bytes
// calibration chosen so the per-layer Table 1 code totals reproduce.
// Layer data (PCBs, dispatch tables, socket buffers, interrupt vectors)
// is registered the same way against the Table 1 read-only/mutable
// columns. The working-set *analysis* (rasterisation at any line size,
// first-touch classification) is computed, not assumed — Table 3 falls
// out of the sparsity structure.
//
// A few kernel-overhead rows (process control, kernel entry) include an
// aggregate entry for small unlabeled functions that Figure 1 does not
// name individually; these are marked "misc" below.
#pragma once

#include <array>
#include <cstdint>

#include "trace/code_map.hpp"
#include "trace/data_map.hpp"
#include "trace/trace_buffer.hpp"

namespace ldlp::stack {

/// Every function named in the paper's Figure 1, plus per-layer misc
/// aggregates.
enum class Fn : std::uint16_t {
  // Device driver (Lance Ethernet + TurboChannel glue).
  kLeIntr,
  kLeStart,
  kAsicIntr,
  kTcIoIntr,
  kLeWriteReg,
  // Ethernet.
  kEtherInput,
  kEtherOutput,
  kArpResolve,
  kInBroadcast,
  // IP.
  kIpIntr,
  kIpOutput,
  kNetIntr,
  kDoSir,
  // TCP.
  kTcpInput,
  kTcpOutput,
  kTcpUsrreq,
  // Socket, lower half.
  kSbAppend,
  kSbCompress,
  kSoWakeup,
  // Socket, upper half.
  kSoReceive,
  kSooRead,
  kSbWait,
  kRead,
  // Kernel entry/exit.
  kSyscall,
  kTrap,
  kXentInt,
  kXentSys,
  kRei,
  kInterrupt,
  kPalSwpIpl,
  kSpl0,
  // Process control.
  kTsleep,
  kWakeup,
  kMiSwitch,
  kCpuSwitch,
  kSetRunqueue,
  kSelWakeup,
  kIdle,
  kMicrotime,
  kSchedMisc,  ///< Aggregate of unlabeled scheduler helpers.
  // Buffer management.
  kMalloc,
  kFree,
  kMAdj,
  // Copy / checksum.
  kInCksum,
  kBcopy,
  kCopyout,
  kUiomove,
  kBzero,
  kNtohl,
  kNtohs,
  kCopyFromBufGap2,
  kZeroBufGap16,
  kCopyToBufGap16,
  kCopyToBufGap2,
  kCopyFromBufGap16,
  kCount
};

/// Data regions, one or two per Table 1 row.
enum class Rgn : std::uint16_t {
  kDevConfigRo,
  kDevRingMut,
  kEthIfnetRo,
  kEthStatsMut,
  kIpRouteRo,
  kIpStateMut,
  kTcpTablesRo,
  kTcpPcbMut,
  kSockLowRo,
  kSockBufMut,
  kSockHighRo,
  kSockFileMut,
  kSysentRo,
  kKernFrameMut,
  kProcTablesRo,
  kProcStateMut,
  kBufBucketsRo,
  kBufFreelistMut,
  kCopyTablesRo,
  kCopyStateMut,
  kCount
};

/// Singleton-ish tracing session: layers call the free functions below,
/// which no-op unless a tracer is active. Exactly one tracer can be
/// active at a time (the stack is single-threaded, like the kernel path
/// it models).
class StackTracer {
 public:
  /// `code_scale` shrinks (or grows) every function's size and executed
  /// bytes — the section 5.2 CISC/RISC experiment: the paper measures
  /// i386 protocol code at roughly half the Alpha's size (55% smaller for
  /// the TCP/IP files, ~40% for typical code), so code_scale=0.5 models
  /// an i386-class instruction encoding on the same stack.
  explicit StackTracer(double code_scale = 1.0);

  StackTracer(const StackTracer&) = delete;
  StackTracer& operator=(const StackTracer&) = delete;
  ~StackTracer();

  void activate(trace::TraceBuffer& buffer) noexcept;
  void deactivate() noexcept;

  [[nodiscard]] static StackTracer* active() noexcept { return active_; }

  void call(Fn fn, double fraction = 1.0, double revisit = 1.0) const;
  void touch(Rgn region, double fraction = 1.0) const;
  void set_phase(trace::Phase phase) noexcept;

  /// Record a reference to packet contents (excluded from Table 1 but
  /// visible in the Figure 1 footers).
  void packet_bytes(trace::RefKind kind, std::uint32_t len) const;

  [[nodiscard]] const trace::CodeMap& code_map() const noexcept {
    return code_;
  }
  [[nodiscard]] const trace::DataMap& data_map() const noexcept {
    return data_;
  }

 private:
  // Thread-local: tracing is a per-thread measurement activity, so a
  // tracer armed on one thread (a fig/table bench) never races with
  // ldlp::par workers pumping their own untraced hosts. Defined inline
  // with a constant initialiser, so every reader loads the slot directly
  // (no TLS init wrapper, which UBSan flagged as a null load).
  inline static thread_local StackTracer* active_ = nullptr;

  trace::CodeMap code_;
  trace::DataMap data_;
  std::array<trace::FnId, static_cast<std::size_t>(Fn::kCount)> fn_ids_{};
  std::array<trace::RegionId, static_cast<std::size_t>(Rgn::kCount)>
      rgn_ids_{};
  trace::TraceBuffer* buffer_ = nullptr;
};

/// Layer-side hooks (no-ops when no tracer is active).
inline void trace_fn(Fn fn, double fraction = 1.0, double revisit = 1.0) {
  if (const StackTracer* t = StackTracer::active()) t->call(fn, fraction, revisit);
}
inline void trace_rgn(Rgn region, double fraction = 1.0) {
  if (const StackTracer* t = StackTracer::active()) t->touch(region, fraction);
}
inline void trace_pkt(trace::RefKind kind, std::uint32_t len) {
  if (const StackTracer* t = StackTracer::active()) t->packet_bytes(kind, len);
}

}  // namespace ldlp::stack
