// Compile-and-run proof that the simulator's hot-path layers — the calendar
// event engine, the flat MSM match indexes and the recycled message and
// payload slots — stay fully usable under -fno-exceptions (fatal errors
// route through sim::simFail, which aborts instead of throwing).  Built
// only in the bench preset, where this file and the engine sources are
// compiled with -fno-exceptions; a stray `throw` in any of these layers
// breaks the build.
#include <cstddef>
#include <cstdio>
#include <vector>

#include "bcsmpi/matching.hpp"
#include "sim/engine.hpp"
#include "sim/slots.hpp"

#if defined(__cpp_exceptions)
#error "noexcept_smoke must be compiled with -fno-exceptions"
#endif

int main() {
  bcs::sim::Engine eng;
  int fired = 0;
  eng.at(100, [&] { ++fired; });
  eng.after(bcs::sim::msec(20), [&] { ++fired; });  // beyond wheel horizon
  const bcs::sim::EventId doomed = eng.at(500, [&] { ++fired; });
  if (!eng.cancel(doomed)) return 1;
  eng.run();
  if (fired != 2 || eng.pendingEvents() != 0) return 1;

  // A collective payload buffer comes back with its capacity.
  bcs::sim::Slots<std::vector<std::byte>> payloads;
  {
    auto buf = payloads.acquire();
    buf->resize(4096);
  }
  if (payloads.inUse() != 0 || payloads.acquire()->capacity() < 4096) {
    return 1;
  }

  bcs::bcsmpi::SendMatchIndex sends;
  bcs::bcsmpi::RecvMatchIndex recvs;
  bcs::bcsmpi::SendDescriptor s;
  s.job = 0;
  s.src_rank = 1;
  s.dst_rank = 0;
  s.tag = 7;
  s.seq = 1;
  sends.insert(s);
  bcs::bcsmpi::RecvDescriptor r;
  r.job = 0;
  r.want_src = bcs::mpi::kAnySource;
  r.dst_rank = 0;
  r.want_tag = 7;
  r.seq = 2;
  r.bytes = 64;
  recvs.insert(r);
  const bcs::bcsmpi::SendDescriptor* hit = sends.lowestSeqMatch(r);
  if (hit == nullptr || hit->seq != 1) return 1;
  if (sends.take(1).tag != 7 || !sends.empty()) return 1;
  if (recvs.take(2).bytes != 64 || !recvs.empty()) return 1;
  for (std::uint64_t seq = 3; seq < 7; ++seq) {
    s.seq = seq;
    s.tag = static_cast<int>(seq % 2);
    sends.insert(s);
  }
  sends.eraseIf([](const bcs::bcsmpi::SendDescriptor& d) { return d.tag == 1; });
  if (sends.size() != 2) return 1;
  r.want_tag = 0;
  r.want_src = 1;
  hit = sends.lowestSeqMatch(r);
  if (hit == nullptr || hit->seq != 4) return 1;

  // A slot is freed with its last Ref and comes back cleared, its vector's
  // capacity kept.
  bcs::sim::Slots<std::vector<int>> slots;
  {
    auto a = slots.acquire();
    a->assign(32, 1);
    auto b = a;
  }
  if (slots.inUse() != 0) return 1;
  auto again = slots.acquire();
  if (slots.capacity() != 1 || !again->empty() || again->capacity() < 32) {
    return 1;
  }

  std::puts("noexcept smoke: ok");
  return 0;
}
