#include "kernels/kernels.hpp"

#include <atomic>
#include <cstdlib>

#include "kernels/kernels_impl.hpp"
#include "util/logging.hpp"

namespace a3 {

const char *
kernelIsaName(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::Scalar:
        return "scalar";
      case KernelIsa::Sse2:
        return "sse2";
      case KernelIsa::Avx2:
        return "avx2";
      case KernelIsa::Neon:
        return "neon";
    }
    panic("unknown kernel ISA");
}

const Kernels &
scalarKernels()
{
    using namespace kernel_detail;
    static const Kernels table{
        KernelIsa::Scalar, dotScalar,      axpyScalar,
        maxReduceScalar,   expSumInPlaceScalar, scaleScalar,
        divideByScalar,    gatherDotScalar, gatherWeightedSumScalar,
        dotI8Scalar,       gatherDotI8Scalar,
        dotI4Scalar,       gatherDotI4Scalar,
        axpyI8Scalar,      axpyI4Scalar,
        dotI16Scalar,      gatherDotI16Scalar,
        axpyI16Scalar,
    };
    return table;
}

std::vector<KernelIsa>
availableKernelIsas()
{
    std::vector<KernelIsa> isas{KernelIsa::Scalar};
    if (sse2Kernels() != nullptr)
        isas.push_back(KernelIsa::Sse2);
    if (neonKernels() != nullptr)
        isas.push_back(KernelIsa::Neon);
    if (avx2Kernels() != nullptr)
        isas.push_back(KernelIsa::Avx2);
    return isas;
}

const Kernels &
kernelsFor(KernelIsa isa)
{
    const Kernels *table = nullptr;
    switch (isa) {
      case KernelIsa::Scalar:
        return scalarKernels();
      case KernelIsa::Sse2:
        table = sse2Kernels();
        break;
      case KernelIsa::Avx2:
        table = avx2Kernels();
        break;
      case KernelIsa::Neon:
        table = neonKernels();
        break;
    }
    return table != nullptr ? *table : scalarKernels();
}

namespace {

/** A3_FORCE_SCALAR_KERNELS set to anything but "0" pins scalar. */
bool
envForcesScalar()
{
    const char *value = std::getenv("A3_FORCE_SCALAR_KERNELS");
    return value != nullptr && value[0] != '\0' &&
           !(value[0] == '0' && value[1] == '\0');
}

}  // namespace

const Kernels &
selectKernels()
{
    if (envForcesScalar())
        return scalarKernels();
    if (const Kernels *table = avx2Kernels())
        return *table;
    if (const Kernels *table = neonKernels())
        return *table;
    if (const Kernels *table = sse2Kernels())
        return *table;
    return scalarKernels();
}

namespace {

std::atomic<const Kernels *> g_active{nullptr};

}  // namespace

const Kernels &
activeKernels()
{
    const Kernels *table = g_active.load(std::memory_order_acquire);
    if (table == nullptr) {
        // Benign race: selectKernels() is deterministic, so concurrent
        // first calls store the same pointer.
        table = &selectKernels();
        g_active.store(table, std::memory_order_release);
    }
    return *table;
}

void
setActiveKernels(const Kernels &kernels)
{
    g_active.store(&kernels, std::memory_order_release);
}

}  // namespace a3
