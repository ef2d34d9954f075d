// Warning lines for the simulator and controller.
//
// Benchmarks print their tables to stdout; diagnostics go to stderr through
// this logger so the two never interleave in captured output.

#ifndef SRC_SIM_LOG_H_
#define SRC_SIM_LOG_H_

#include <sstream>
#include <string>

namespace saba {

// Writes "[WARN] <message>" as one line to stderr.
void LogWarning(const std::string& message);

// Stream-style helper: SABA_LOG_WARNING << "x=" << x; emits at destruction.
class WarningStream {
 public:
  WarningStream() = default;
  ~WarningStream() { LogWarning(stream_.str()); }

  WarningStream(const WarningStream&) = delete;
  WarningStream& operator=(const WarningStream&) = delete;

  template <typename T>
  WarningStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

#define SABA_LOG_WARNING ::saba::WarningStream()

}  // namespace saba

#endif  // SRC_SIM_LOG_H_
