#include "core/kernels/update_kernel.hpp"

#include <stdexcept>

namespace pgl::core {

KernelRegistry& KernelRegistry::instance() {
    static KernelRegistry registry = [] {
        KernelRegistry r;
        r.add("scalar", make_scalar_kernel);
        r.add("simd", make_simd_kernel);
        return r;
    }();
    return registry;
}

std::unique_ptr<UpdateKernel> make_update_kernel(const std::string& name) {
    auto kernel = KernelRegistry::instance().create(name);
    if (!kernel) {
        throw std::invalid_argument(
            KernelRegistry::instance().unknown(name, "update kernel"));
    }
    return kernel;
}

}  // namespace pgl::core
