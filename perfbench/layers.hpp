// Outside-in layer timing for the repository benchmark.
//
// Nothing here reaches inside src/: layers are timed around the public calls
// into them, and the stem/gate split comes from a wrapper Gate that resolves
// the lazy features itself before handing eager features to the real gate.
// Spans stay in memory (one SpanLog per thread) and are written once the
// traced run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gating/gate.hpp"
#include "gating/learned_gate.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Layer boundaries the benchmark records spans at. The names are the
/// prefixes of the per-layer metrics.
enum class Layer : std::uint8_t {
  kPass,            // one timed pipeline call (root of pooled spans)
  kFrame,           // one frame of the single-thread decomposed pass (root)
  kRender,          // FrameStream::next with prefetch = 0
  kWorkspace,       // FrameWorkspace construction
  kSelect,          // EcoFusionEngine::select_adaptive
  kStems,           // GateInput::get_features (inside select)
  kGate,            // inner Gate::predict_losses on eager features
  kBranches,        // FrameWorkspace::branch_detections over φ*'s branches
  kFuseScore,       // EcoFusionEngine::run_selected on memoized branches
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

struct SpanRecord {
  Layer layer = Layer::kFrame;
  std::int32_t parent = -1;  // index into the same log, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t frame = 0;   // frame index within its pass (roots: pass)
};

/// Single-thread span log: open/close nest like a stack.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t thread) : thread_(thread) {}

  /// Opens a span under the innermost open one.
  void open(Layer layer, std::uint64_t frame) {
    const std::int32_t parent =
        stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
    spans_.push_back({layer, parent, now_ns(), 0, frame});
    stack_.push_back(spans_.size() - 1);
  }

  /// Closes the innermost open span.
  void close() {
    spans_[stack_.back()].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint32_t thread() const noexcept { return thread_; }

 private:
  std::uint32_t thread_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span on a log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, Layer layer, std::uint64_t frame) : log_(log) {
    log_.open(layer, frame);
  }
  ~ScopedSpan() { log_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
};

/// Per-layer totals folded from span logs: total duration per layer and
/// self time (duration minus the part its child spans cover).
struct LayerTotals {
  std::int64_t total_ns[static_cast<std::size_t>(Layer::kCount)] = {};
  std::int64_t self_ns[static_cast<std::size_t>(Layer::kCount)] = {};

  void add(const SpanLog& log);
  [[nodiscard]] std::int64_t total(Layer layer) const {
    return total_ns[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::int64_t self(Layer layer) const {
    return self_ns[static_cast<std::size_t>(layer)];
  }
};

/// Writes every log as Chrome trace_event JSON (viewable in Perfetto).
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs);

/// A trained learned gate's weights, from which behaviourally identical
/// per-worker instances are built (the pipelines need one gate per worker).
struct GateWeights {
  eco::gating::LearnedGateConfig config;
  std::vector<eco::tensor::Tensor> values;

  [[nodiscard]] static GateWeights snapshot(eco::gating::LearnedGate& gate);
  [[nodiscard]] std::unique_ptr<eco::gating::LearnedGate> instantiate() const;
};

/// Wrapper gate splitting stem time from gate time from the outside: when
/// the inner gate reads features it resolves GateInput::get_features()
/// first (the lazy stems run there), then calls the inner gate with eager
/// features. Gates that never read F (Knowledge) are not made to pull it.
class TimedGate final : public eco::gating::Gate {
 public:
  TimedGate(std::unique_ptr<eco::gating::Gate> inner, bool reads_features,
            SpanLog& log)
      : inner_(std::move(inner)), reads_features_(reads_features), log_(log) {}

  std::vector<float> predict_losses(
      const eco::gating::GateInput& input) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] eco::energy::GateComplexity complexity() const override {
    return inner_->complexity();
  }
  [[nodiscard]] double modeled_cost_ms(
      const eco::energy::Px2Model& px2) const override {
    return inner_->modeled_cost_ms(px2);
  }
  [[nodiscard]] bool tunable() const override { return inner_->tunable(); }
  [[nodiscard]] bool needs_oracle() const override {
    return inner_->needs_oracle();
  }

  /// Frame index stamped on the next spans (the decomposed pass sets it).
  void set_frame(std::uint64_t frame) noexcept { frame_ = frame; }

 private:
  std::unique_ptr<eco::gating::Gate> inner_;
  bool reads_features_;
  SpanLog& log_;
  std::uint64_t frame_ = 0;
};

/// Owns the span logs of the TimedGates a pipeline builds through its gate
/// factory (one per pool worker, per shard). Thread-safe: shard drivers
/// call the factory concurrently.
class GateLogRegistry {
 public:
  SpanLog& new_log() {
    const std::lock_guard<std::mutex> lock(mutex_);
    logs_.emplace_back(static_cast<std::uint32_t>(logs_.size() + 1));
    return logs_.back();
  }
  [[nodiscard]] std::vector<const SpanLog*> logs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const SpanLog*> out;
    for (const SpanLog& log : logs_) out.push_back(&log);
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::deque<SpanLog> logs_;  // deque: new_log() never moves earlier logs
};

}  // namespace perfbench
