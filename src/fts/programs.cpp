#include "src/fts/programs.hpp"

#include <array>
#include <charconv>

namespace mph::fts::programs {
namespace {

void add_location_atoms(Program& prog, std::size_t process_1based, std::size_t pc_var) {
  const std::string i = std::to_string(process_1based);
  prog.atoms["n" + i] = [pc_var](const Fts&, const Valuation& v, int) { return v[pc_var] == 0; };
  prog.atoms["t" + i] = [pc_var](const Fts&, const Valuation& v, int) { return v[pc_var] == 1; };
  prog.atoms["c" + i] = [pc_var](const Fts&, const Valuation& v, int) { return v[pc_var] == 2; };
}

}  // namespace

Program peterson() {
  Program prog;
  Fts& s = prog.system;
  const std::size_t pc1 = s.add_var("pc1", 0, 2, 0);
  const std::size_t pc2 = s.add_var("pc2", 0, 2, 0);
  const std::size_t f1 = s.add_var("flag1", 0, 1, 0);
  const std::size_t f2 = s.add_var("flag2", 0, 1, 0);
  const std::size_t turn = s.add_var("turn", 0, 1, 0);  // 0: process 1's turn

  s.add_transition(
      "try1", Fairness::None, [pc1](const Valuation& v) { return v[pc1] == 0; },
      [pc1, f1, turn](Valuation& v) {
        v[pc1] = 1;
        v[f1] = 1;
        v[turn] = 1;  // yield priority to process 2
      });
  s.add_transition(
      "enter1", Fairness::Weak,
      [pc1, f2, turn](const Valuation& v) {
        return v[pc1] == 1 && (v[f2] == 0 || v[turn] == 0);
      },
      [pc1](Valuation& v) { v[pc1] = 2; });
  s.add_transition(
      "exit1", Fairness::Weak, [pc1](const Valuation& v) { return v[pc1] == 2; },
      [pc1, f1](Valuation& v) {
        v[pc1] = 0;
        v[f1] = 0;
      });
  s.add_transition(
      "try2", Fairness::None, [pc2](const Valuation& v) { return v[pc2] == 0; },
      [pc2, f2, turn](Valuation& v) {
        v[pc2] = 1;
        v[f2] = 1;
        v[turn] = 0;  // yield priority to process 1
      });
  s.add_transition(
      "enter2", Fairness::Weak,
      [pc2, f1, turn](const Valuation& v) {
        return v[pc2] == 1 && (v[f1] == 0 || v[turn] == 1);
      },
      [pc2](Valuation& v) { v[pc2] = 2; });
  s.add_transition(
      "exit2", Fairness::Weak, [pc2](const Valuation& v) { return v[pc2] == 2; },
      [pc2, f2](Valuation& v) {
        v[pc2] = 0;
        v[f2] = 0;
      });
  add_location_atoms(prog, 1, pc1);
  add_location_atoms(prog, 2, pc2);
  return prog;
}

Program trivial_mutex() {
  Program prog;
  Fts& s = prog.system;
  const std::size_t pc1 = s.add_var("pc1", 0, 2, 0);
  const std::size_t pc2 = s.add_var("pc2", 0, 2, 0);
  s.add_transition(
      "try1", Fairness::None, [pc1](const Valuation& v) { return v[pc1] == 0; },
      [pc1](Valuation& v) { v[pc1] = 1; });
  s.add_transition(
      "try2", Fairness::None, [pc2](const Valuation& v) { return v[pc2] == 0; },
      [pc2](Valuation& v) { v[pc2] = 1; });
  // No transition ever grants the critical section.
  add_location_atoms(prog, 1, pc1);
  add_location_atoms(prog, 2, pc2);
  return prog;
}

Program semaphore_mutex(std::size_t n_processes, Fairness acquire_fairness) {
  MPH_REQUIRE(n_processes >= 2 && n_processes <= 4, "semaphore_mutex supports 2..4 processes");
  Program prog;
  Fts& s = prog.system;
  std::vector<std::size_t> pc;
  for (std::size_t i = 0; i < n_processes; ++i)
    pc.push_back(s.add_var("pc" + std::to_string(i + 1), 0, 2, 0));
  const std::size_t sem = s.add_var("sem", 0, 1, 1);
  for (std::size_t i = 0; i < n_processes; ++i) {
    const std::size_t pci = pc[i];
    const std::string id = std::to_string(i + 1);
    s.add_transition(
        "try" + id, Fairness::None, [pci](const Valuation& v) { return v[pci] == 0; },
        [pci](Valuation& v) { v[pci] = 1; });
    s.add_transition(
        "acquire" + id, acquire_fairness,
        [pci, sem](const Valuation& v) { return v[pci] == 1 && v[sem] == 1; },
        [pci, sem](Valuation& v) {
          v[pci] = 2;
          v[sem] = 0;
        });
    s.add_transition(
        "release" + id, Fairness::Weak, [pci](const Valuation& v) { return v[pci] == 2; },
        [pci, sem](Valuation& v) {
          v[pci] = 0;
          v[sem] = 1;
        });
    add_location_atoms(prog, i + 1, pci);
  }
  return prog;
}

Program producer_consumer(int capacity) {
  MPH_REQUIRE(capacity >= 1, "capacity must be positive");
  Program prog;
  Fts& s = prog.system;
  const std::size_t count = s.add_var("count", 0, capacity, 0);
  s.add_transition(
      "produce", Fairness::None,
      [count, capacity](const Valuation& v) { return v[count] < capacity; },
      [count](Valuation& v) { ++v[count]; });
  s.add_transition(
      "consume", Fairness::Weak, [count](const Valuation& v) { return v[count] > 0; },
      [count](Valuation& v) { --v[count]; });
  prog.atoms["empty"] = [count](const Fts&, const Valuation& v, int) { return v[count] == 0; };
  prog.atoms["full"] = [count, capacity](const Fts&, const Valuation& v, int) {
    return v[count] == capacity;
  };
  prog.atoms["nonempty"] = [count](const Fts&, const Valuation& v, int) {
    return v[count] > 0;
  };
  return prog;
}

Program dining_philosophers(std::size_t n) {
  MPH_REQUIRE(n >= 2 && n <= 12, "dining_philosophers supports 2..12 philosophers");
  Program prog;
  Fts& s = prog.system;
  // pc_i: 0 = thinking, 1 = holds left fork, 2 = eating (holds both).
  // fork_j: 0 = free, 1 = held.
  std::vector<std::size_t> pc, fork;
  for (std::size_t i = 0; i < n; ++i)
    pc.push_back(s.add_var("pc" + std::to_string(i + 1), 0, 2, 0));
  for (std::size_t j = 0; j < n; ++j)
    fork.push_back(s.add_var("fork" + std::to_string(j + 1), 0, 1, 0));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pci = pc[i];
    const std::size_t left = fork[i];
    const std::size_t right = fork[(i + 1) % n];
    const std::string id = std::to_string(i + 1);
    s.add_transition(
        "grab_left" + id, Fairness::Weak,
        [pci, left](const Valuation& v) { return v[pci] == 0 && v[left] == 0; },
        [pci, left](Valuation& v) {
          v[pci] = 1;
          v[left] = 1;
        });
    s.add_transition(
        "grab_right" + id, Fairness::Weak,
        [pci, right](const Valuation& v) { return v[pci] == 1 && v[right] == 0; },
        [pci, right](Valuation& v) {
          v[pci] = 2;
          v[right] = 1;
        });
    s.add_transition(
        "put_down" + id, Fairness::Weak,
        [pci](const Valuation& v) { return v[pci] == 2; },
        [pci, left, right](Valuation& v) {
          v[pci] = 0;
          v[left] = 0;
          v[right] = 0;
        });
    prog.atoms["eat" + id] = [pci](const Fts&, const Valuation& v, int) {
      return v[pci] == 2;
    };
    prog.atoms["hungry" + id] = [pci](const Fts&, const Valuation& v, int) {
      return v[pci] == 1;
    };
  }
  prog.atoms["deadlock"] = deadlocked();
  return prog;
}

Program ring_leader(std::size_t n) {
  MPH_REQUIRE(n >= 2 && n <= 10, "ring_leader supports 2..10 nodes");
  Program prog;
  Fts& s = prog.system;
  const int ni = static_cast<int>(n);
  // chan<j>: the one-slot channel INTO node j (0 = empty, otherwise a
  // candidate id). Initially every node has announced its own id to its
  // successor, so chan<j> starts holding the predecessor's id.
  std::vector<std::size_t> chan;
  for (std::size_t j = 0; j < n; ++j) {
    const int pred_id = static_cast<int>((j + n - 1) % n) + 1;
    chan.push_back(s.add_var("chan" + std::to_string(j + 1), 0, ni, pred_id));
  }
  const std::size_t leader = s.add_var("leader", 0, ni, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const int id = static_cast<int>(j) + 1;
    const std::size_t in = chan[j];
    const std::size_t out = chan[(j + 1) % n];
    // Receive: drop smaller ids, elect on the own id, forward bigger ids
    // (forwarding needs the outgoing slot free — part of the guard, so the
    // transition is disabled rather than message-dropping while blocked).
    // The ring halts once a leader is known.
    s.add_transition(
        "recv" + std::to_string(id), Fairness::Weak,
        [in, out, id, leader](const Valuation& v) {
          return v[leader] == 0 && v[in] != 0 && (v[in] <= id || v[out] == 0);
        },
        [in, out, id, leader](Valuation& v) {
          const int m = v[in];
          v[in] = 0;
          if (m == id)
            v[leader] = id;
          else if (m > id)
            v[out] = m;
        });
  }
  prog.atoms["elected"] = [leader](const Fts&, const Valuation& v, int) {
    return v[leader] > 0;
  };
  prog.atoms["maxleader"] = [leader, ni](const Fts&, const Valuation& v, int) {
    return v[leader] == ni;
  };
  prog.atoms["quiet"] = [chan](const Fts&, const Valuation& v, int) {
    for (std::size_t c : chan)
      if (v[c] != 0) return false;
    return true;
  };
  return prog;
}

std::span<const std::string_view> builtin_model_names() {
  static constexpr std::array<std::string_view, 6> kNames = {
      "peterson",          "trivial-mutex", "semaphore-weak", "semaphore-strong",
      "producer-consumer", "dining-3"};
  return kNames;
}

std::optional<Program> builtin_model(std::string_view name) {
  if (name == "peterson") return peterson();
  if (name == "trivial-mutex") return trivial_mutex();
  if (name == "semaphore-weak") return semaphore_mutex(3, Fairness::Weak);
  if (name == "semaphore-strong") return semaphore_mutex(3, Fairness::Strong);
  if (name == "producer-consumer") return producer_consumer(3);
  auto family = [&](std::string_view prefix) -> std::optional<std::size_t> {
    if (!name.starts_with(prefix)) return std::nullopt;
    const std::string_view digits = name.substr(prefix.size());
    if (digits.empty() || digits.size() > 3 || (digits.size() > 1 && digits[0] == '0'))
      return std::nullopt;
    std::size_t n = 0;
    const auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), n);
    if (ec != std::errc{} || end != digits.data() + digits.size()) return std::nullopt;
    return n;
  };
  if (auto n = family("dining-")) return dining_philosophers(*n);
  if (auto n = family("ring-")) return ring_leader(*n);
  return std::nullopt;
}

}  // namespace mph::fts::programs
