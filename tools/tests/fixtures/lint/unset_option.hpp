// Fixture: option-struct fields that nothing assigns by name must be
// flagged; fields set anywhere (member access or designated
// initializer), member functions, nested types and structs with other
// names are clean.
#pragma once

#include <cstddef>
#include <functional>

namespace fixture {

struct Rect {
  double w = 1.0;
};

struct WidgetOptions {
  std::size_t count = 4;
  double gain = 0.25;  // EXPECT-LINT: unset-option
  std::function<double(const Rect&)> density;
  Rect domain{2.0};  // EXPECT-LINT: unset-option
  enum class Mode { kFast, kExact };
  Mode mode = Mode::kFast;
  using Callback = void (*)(int);
  static constexpr double kScale = 2.0;
  bool valid() const { return count > 0 && gain > 0.0; }
  WidgetOptions() = default;
};

struct RetryPolicy {
  std::size_t max_attempts = 3;
  double backoff_ms = 1.0;  // EXPECT-LINT: unset-option
};

struct PlainSettings {
  int never_set = 0;  // not an option struct: unchecked
};

inline double configure(const Rect& r) {
  WidgetOptions opts;
  opts.count = 8;
  opts.density = [](const Rect& x) { return x.w; };
  opts.mode = WidgetOptions::Mode::kExact;
  if (opts.count == 8) return r.w;  // a comparison is no assignment
  const RetryPolicy policy{.max_attempts = 5};
  return static_cast<double>(policy.max_attempts);
}

}  // namespace fixture
