// Weak vs strong fairness (§4): weak fairness (justice) is a recurrence
// property, strong fairness (compassion) is a simple reactivity property,
// and the gap is observable: a semaphore scheduler that is weakly fair can
// starve a process, a strongly fair one cannot.
#include <iostream>

#include "src/core/chains.hpp"
#include "src/core/classify.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/hierarchy.hpp"
#include "src/ltl/patterns.hpp"
#include "src/support/table.hpp"

int main() {
  using namespace mph;

  std::cout << "Fairness notions in the hierarchy\n\n";
  {
    auto alphabet = lang::Alphabet::of_props({"en", "tk"});
    auto weak = ltl::compile(ltl::patterns::weak_fairness("en", "tk"), alphabet);
    auto strong = ltl::compile(ltl::patterns::strong_fairness("en", "tk"), alphabet);
    auto cw = core::classify(weak);
    auto cs = core::classify(strong);
    auto chains_w = core::alternation_chains(weak);
    auto chains_s = core::alternation_chains(strong);
    TextTable t({"fairness", "formula", "class", "streett index"});
    t.add_row({"weak (justice)", ltl::patterns::weak_fairness("en", "tk").to_string(),
               core::to_string(cw.lowest()), std::to_string(chains_w.streett_chain)});
    t.add_row({"strong (compassion)", ltl::patterns::strong_fairness("en", "tk").to_string(),
               core::to_string(cs.lowest()), std::to_string(chains_s.streett_chain)});
    std::cout << t.to_string() << "\n";
  }

  std::cout << "Observable difference on the semaphore protocol\n\n";
  TextTable t({"acquire fairness", "accessibility P1", "product states"});
  for (auto fairness : {fts::Fairness::Weak, fts::Fairness::Strong}) {
    auto prog = fts::programs::semaphore_mutex(2, fairness);
    auto result =
        fts::check(prog.system, ltl::patterns::accessibility("t1", "c1"), prog.atoms);
    t.add_row({fairness == fts::Fairness::Weak ? "weak" : "strong",
               result.holds ? "holds" : "VIOLATED", std::to_string(result.stats.product_states)});
  }
  std::cout << t.to_string() << "\n";

  std::cout << "The starvation scenario under weak fairness (process 2 cycles\n"
            << "through the semaphore; acquire1 is enabled infinitely often but\n"
            << "never continuously, so justice never forces it):\n\n";
  {
    auto prog = fts::programs::semaphore_mutex(2, fts::Fairness::Weak);
    auto result =
        fts::check(prog.system, ltl::patterns::accessibility("t1", "c1"), prog.atoms);
    if (result.counterexample)
      std::cout << result.counterexample->to_string(prog.system) << "\n";
  }

  std::cout << "Under strong fairness every fair run admits process 1; the same\n"
            << "loop is no longer acceptance-fair, so the check succeeds.\n";
  return 0;
}
