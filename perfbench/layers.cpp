#include "layers.hpp"

#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kPass: return "runtime.pass";
    case Layer::kFrame: return "frame";
    case Layer::kRender: return "dataset.render";
    case Layer::kWorkspace: return "exec.workspace";
    case Layer::kSelect: return "core.select";
    case Layer::kStems: return "core.stems";
    case Layer::kGate: return "gating.gate";
    case Layer::kBranches: return "detect.branches";
    case Layer::kFuseScore: return "fusion.fuse_score";
    case Layer::kCount: break;
  }
  return "?";
}

void LayerTotals::add(const SpanLog& log) {
  const std::vector<SpanRecord>& spans = log.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto l = static_cast<std::size_t>(spans[i].layer);
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    total_ns[l] += duration;
    self_ns[l] += duration - child_ns[i];
  }
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = 0;
  for (const SpanLog* log : logs) {
    for (const SpanRecord& span : log->spans()) {
      if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
    }
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const SpanRecord& span : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"frame\":%llu}}",
                   first ? "" : ",", layer_name(span.layer), log->thread(),
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<unsigned long long>(span.frame));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

GateWeights GateWeights::snapshot(eco::gating::LearnedGate& gate) {
  GateWeights weights;
  weights.config = gate.config();
  for (const eco::tensor::Param* param : gate.parameters()) {
    weights.values.push_back(param->value);
  }
  return weights;
}

std::unique_ptr<eco::gating::LearnedGate> GateWeights::instantiate() const {
  auto gate = std::make_unique<eco::gating::LearnedGate>(config);
  const std::vector<eco::tensor::Param*> params = gate->parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = values.at(i);
  }
  return gate;
}

std::vector<float> TimedGate::predict_losses(
    const eco::gating::GateInput& input) {
  if (!reads_features_) {
    const ScopedSpan span(log_, Layer::kGate, frame_);
    return inner_->predict_losses(input);
  }
  const eco::tensor::Tensor* features = nullptr;
  {
    const ScopedSpan span(log_, Layer::kStems, frame_);
    features = &input.get_features();
  }
  eco::gating::GateInput eager = input;
  eager.features = features;
  eager.feature_source = nullptr;
  const ScopedSpan span(log_, Layer::kGate, frame_);
  return inner_->predict_losses(eager);
}

}  // namespace perfbench
