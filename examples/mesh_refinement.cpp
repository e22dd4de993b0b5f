// Delaunay-style mesh refinement over a TransactionalQueue (paper S3.3).
//
// The motivating application for the reduced-isolation work queue: workers
// take "bad triangles" from a shared queue, refine them (which may produce
// NEW bad triangles that go back on the queue), and occasionally abort when
// their cavity was invalidated by a neighbour.  TransactionalQueue
// guarantees that aborted work reappears for someone else and speculative
// new work never leaks — the exact failure mode Kulkarni et al. hit with
// raw open nesting.
#include <cstdio>

#include "core/txqueue.h"
#include "jstd/linkedqueue.h"
#include "tm/shared.h"

namespace {

struct Mesh {
  // A toy "mesh": refinement quality per region; refining a bad region may
  // spoil up to two neighbours, which then need refinement themselves.
  static constexpr long kRegions = 256;
  std::vector<std::unique_ptr<atomos::Shared<long>>> quality;

  Mesh() {
    quality.reserve(kRegions);
    for (long r = 0; r < kRegions; ++r)
      quality.push_back(std::make_unique<atomos::Shared<long>>(0, sim::kDataCell));
  }
};

}  // namespace

int main() {
  constexpr int kCpus = 8;
  sim::Config cfg;
  cfg.num_cpus = kCpus;
  cfg.mode = sim::Mode::kTcc;
  sim::Engine engine(cfg);
  atomos::Runtime runtime(engine);

  Mesh mesh;
  tcc::TransactionalQueue<long> worklist(std::make_unique<jstd::LinkedQueue<long>>());
  // Seed: every 4th region starts "bad".
  long seeded = 0;
  for (long r = 0; r < Mesh::kRegions; r += 4) {
    worklist.put(r);
    ++seeded;
  }

  atomos::Shared<long> refined(0, sim::kDataCell);

  for (int cpu = 0; cpu < kCpus; ++cpu) {
    engine.spawn([&, cpu] {
      std::uint64_t s = 31 + static_cast<std::uint64_t>(cpu) * 13;
      auto rnd = [&s] {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
      };
      int idle_polls = 0;
      while (idle_polls < 3) {
        bool worked = false;
        atomos::atomically([&] {
          auto region = worklist.take();  // eager removal, compensated on abort
          if (!region.has_value()) return;
          worked = true;
          // "Refine" the region: mark it good, maybe spoil a neighbour.
          if (atomos::work(400)) return;
          mesh.quality[static_cast<std::size_t>(*region)]->set(1);
          if (rnd() % 8 == 0) {  // cascading work, enqueued atomically
            const long neighbour = (*region + 1) % Mesh::kRegions;
            worklist.put(neighbour);
          }
          refined.set(refined.get() + 1);
        });
        idle_polls = worked ? 0 : idle_polls + 1;
      }
    });
  }
  engine.run();

  std::printf("seeded regions    : %ld\n", seeded);
  std::printf("refinements done  : %ld (>= seeded: cascades add work)\n",
              refined.unsafe_peek());
  std::printf("worklist leftover : %ld (must be 0)\n", worklist.inner().size());
  std::printf("violations        : %llu (conflicts on the mesh, never on the queue)\n",
              static_cast<unsigned long long>(
                  engine.stats().total(&sim::CpuStats::violations)));
  return worklist.inner().size() == 0 ? 0 : 1;
}
