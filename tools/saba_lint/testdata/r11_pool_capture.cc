// R11 fixture: by-reference captures flowing into WorkerPool dispatches,
// directly and via named locals. Linted by the tests as src/exp code.
#include "src/sim/worker_pool.h"

namespace saba {

void Fan(WorkerPool& pool, int n) {
  int sum = 0;
  pool.Run(n, [&](size_t index) { sum += index; });
  pool.Run(n, [](size_t index) {});
  pool.Run(n, [sum](size_t index) {});
  // saba-lint: pool-capture-ok(fixture: index-owned writes only)
  pool.Run(n, [&](size_t index) { sum += index; });

  auto task = [&](size_t index) { sum += index; };
  pool.Run(n, task);

  // saba-lint: pool-capture-ok(fixture: index-owned writes)
  auto audited = [&](size_t index) { sum += index; };
  pool.Run(n, audited);
}

void NotAPool(int n) {
  struct Runner {
    void Run(int, int) {}
  } runner;
  runner.Run(n, 0);
}

}  // namespace saba
