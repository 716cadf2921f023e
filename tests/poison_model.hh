/**
 * @file
 * A test model that fails on one kind of input: it simulates like
 * DS-STC but throws on any fully dense A block, so a sweep over a
 * sparse and a dense matrix fails on exactly the dense one.
 */

#ifndef UNISTC_TESTS_POISON_MODEL_HH
#define UNISTC_TESTS_POISON_MODEL_HH

#include <memory>
#include <string>
#include <utility>

#include "robust/status.hh"
#include "stc/registry.hh"
#include "stc/stc_model.hh"

namespace unistc
{

class PoisonModel : public StcModel
{
  public:
    PoisonModel(std::string name, const MachineConfig &cfg)
        : StcModel(cfg), name_(std::move(name)),
          inner_(makeStcModel("DS-STC", cfg))
    {
    }

    /** The message every failure of a model named @p name carries. */
    static std::string
    errorFor(const std::string &name)
    {
        return name + " hit a dense block";
    }

    std::string name() const override { return name_; }

    std::unique_ptr<StcModel>
    clone() const override
    {
        return std::make_unique<PoisonModel>(name_, cfg_);
    }

    NetworkConfig network() const override { return inner_->network(); }

    void
    runBlock(const BlockTask &task, RunResult &res,
             TraceSink *trace = nullptr) const override
    {
        if (task.a.nnz() == kBlockSize * kBlockSize)
            throw UnistcError(internalError(errorFor(name_)));
        inner_->runBlock(task, res, trace);
    }

  private:
    std::string name_;
    StcModelPtr inner_;
};

} // namespace unistc

#endif // UNISTC_TESTS_POISON_MODEL_HH
