#pragma once
// The one string-keyed factory-registry implementation behind
// EngineRegistry and KernelRegistry (and any future pluggable layer):
// ordered add-or-replace registration, linear lookup (registries hold a
// handful of entries), sorted name listing. Concrete registries inherit
// and add their process-wide instance() plus built-in registrations.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pgl::core {

template <typename Product>
class FactoryRegistry {
public:
    using Factory = std::function<std::unique_ptr<Product>()>;

    /// Registers (or replaces) a factory under `name`.
    void add(std::string name, Factory factory) {
        for (auto& [existing, f] : factories_) {
            if (existing == name) {
                f = std::move(factory);
                return;
            }
        }
        factories_.emplace_back(std::move(name), std::move(factory));
    }

    bool contains(const std::string& name) const {
        return std::any_of(factories_.begin(), factories_.end(),
                           [&](const auto& e) { return e.first == name; });
    }

    /// Creates a fresh product, or nullptr for an unknown name.
    std::unique_ptr<Product> create(const std::string& name) const {
        for (const auto& [key, factory] : factories_) {
            if (key == name) return factory();
        }
        return nullptr;
    }

    /// The error text for an unregistered name:
    /// `unknown <what> "<name>"; available: <names>`.
    std::string unknown(const std::string& name, const char* what) const {
        std::string msg =
            "unknown " + std::string(what) + " \"" + name + "\"; available:";
        for (const std::string& n : names()) {
            msg += ' ';
            msg += n;
        }
        return msg;
    }

    /// All registered names, sorted.
    std::vector<std::string> names() const {
        std::vector<std::string> out;
        out.reserve(factories_.size());
        for (const auto& [key, factory] : factories_) out.push_back(key);
        std::sort(out.begin(), out.end());
        return out;
    }

protected:
    FactoryRegistry() = default;

private:
    std::vector<std::pair<std::string, Factory>> factories_;
};

}  // namespace pgl::core
