// The "scalar" reference kernel: the historical apply_term_batch loop —
// one term at a time, in slot order, through the shared step_math update.
// Every other kernel is defined by byte-equivalence to this one.
#include "core/kernels/update_kernel.hpp"

#include "telemetry/telemetry.hpp"

namespace pgl::core {

namespace {

class ScalarKernel final : public UpdateKernel {
public:
    ScalarKernel()
        : batches_(
              telemetry::Registry::instance().counter("kernel.scalar.batches")),
          terms_(
              telemetry::Registry::instance().counter("kernel.scalar.terms")) {}

    std::string_view name() const noexcept override { return "scalar"; }

    void apply(const TermBatch& b, double eta, XYStore& store) const override {
        apply_term_slots(b, 0, b.size(), eta, store.data());
        batches_.add(1);
        terms_.add(b.size());
    }

private:
    telemetry::Counter batches_;
    telemetry::Counter terms_;
};

}  // namespace

std::unique_ptr<UpdateKernel> make_scalar_kernel() {
    return std::make_unique<ScalarKernel>();
}

}  // namespace pgl::core
