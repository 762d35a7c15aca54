#include "src/serve/cache.hpp"

#include <cstdio>
#include <sstream>

#include "src/ltl/syntactic.hpp"

namespace mph::serve {

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

std::uint64_t formula_digest(const ltl::Formula& f) {
  return fnv1a64("ltl:" + f.to_string());
}

std::string canonical_model_text(const fuzz::FtsSpec& spec) {
  std::ostringstream out;
  out << "fts v1\n";
  for (const auto& v : spec.vars)
    out << "var " << v.name.size() << ":" << v.name << " " << v.lo << " " << v.hi
        << " " << v.init << "\n";
  for (const auto& t : spec.transitions) {
    out << "trans " << t.name.size() << ":" << t.name << " "
        << static_cast<int>(t.fairness) << "\n";
    for (const auto& g : t.guard)
      out << "  cmp " << g.var << " " << g.op << " " << g.rhs << "\n";
    for (const auto& e : t.effects)
      out << "  eff " << e.var << " " << e.src << " " << e.add << "\n";
  }
  return out.str();
}

std::uint64_t model_digest(const fuzz::FtsSpec& spec) {
  return fnv1a64(canonical_model_text(spec));
}

std::uint64_t builtin_model_digest(std::string_view name) {
  return fnv1a64("builtin:" + std::string(name));
}

std::uint64_t options_digest(const fts::CheckOptions& options) {
  std::uint64_t h = fnv1a64("opts:");
  h = fnv1a64_mix(options.force_scc ? 1 : 0, h);
  h = fnv1a64_mix(options.normalize_steps, h);
  return h;
}

std::uint64_t FormulaCache::intern(const std::string& text, bool& hit) {
  ltl::Formula parsed = ltl::parse_formula(text);
  std::string canonical = parsed.to_string();
  const std::uint64_t digest = fnv1a64("ltl:" + canonical);
  auto it = entries_.find(digest);
  if (it != entries_.end()) {
    hit = true;
    ++hits_;
    return digest;
  }
  hit = false;
  ++misses_;
  FormulaArtifacts art(std::move(parsed), std::move(canonical));
  art.atoms = art.formula.atoms();
  art.syntactic = ltl::syntactic_classification(art.formula);
  entries_.emplace(digest, std::move(art));
  return digest;
}

FormulaArtifacts* FormulaCache::find(std::uint64_t digest) {
  auto it = entries_.find(digest);
  return it == entries_.end() ? nullptr : &it->second;
}

const FormulaArtifacts* FormulaCache::find(std::uint64_t digest) const {
  auto it = entries_.find(digest);
  return it == entries_.end() ? nullptr : &it->second;
}

const VerdictEntry* VerdictCache::find(const VerdictKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

bool VerdictCache::put(const VerdictKey& key, const VerdictEntry& entry) {
  if (!is_complete(entry.stats.outcome)) return false;
  entries_[key] = entry;
  return true;
}

std::size_t VerdictCache::invalidate_model(std::uint64_t model) {
  std::size_t erased = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.model == model) {
      it = entries_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

std::vector<std::pair<std::uint64_t, const VerdictEntry*>> VerdictCache::entries_for(
    std::uint64_t model, std::uint64_t opts) const {
  std::vector<std::pair<std::uint64_t, const VerdictEntry*>> out;
  for (const auto& [key, entry] : entries_)
    if (key.model == model && key.opts == opts) out.emplace_back(key.spec, &entry);
  return out;
}

}  // namespace mph::serve
