#include "src/mph/builder.hpp"

#include "src/mph/errors.hpp"

namespace mph {

RegistryBuilder::MultiComponent& RegistryBuilder::MultiComponent::component(
    std::string name, int low, int high, std::vector<std::string> args) {
  ComponentEntry entry;
  entry.name = std::move(name);
  entry.low = low;
  entry.high = high;
  entry.args = ArgumentSet::from_tokens(args);
  block_.components.push_back(std::move(entry));
  return *this;
}

RegistryBuilder& RegistryBuilder::MultiComponent::done() {
  block_.kind = BlockKind::multi_component;
  parent_.blocks_.push_back(std::move(block_));
  block_ = ExecutableBlock{};
  return parent_;
}

RegistryBuilder& RegistryBuilder::add_single(std::string name,
                                             std::optional<int> size,
                                             std::vector<std::string> args) {
  ExecutableBlock block;
  block.kind = BlockKind::single;
  ComponentEntry entry;
  entry.name = std::move(name);
  if (size.has_value()) {
    if (*size <= 0) {
      throw MphError("builder: single-component size must be positive");
    }
    entry.low = 0;
    entry.high = *size - 1;
  }
  entry.args = ArgumentSet::from_tokens(args);
  block.components.push_back(std::move(entry));
  blocks_.push_back(std::move(block));
  return *this;
}

RegistryBuilder::MultiComponent RegistryBuilder::multi_component() {
  return MultiComponent(*this);
}

RegistryBuilder& RegistryBuilder::multi_instance(
    const std::string& prefix, int instances, int ranks_each,
    const std::function<std::vector<std::string>(int)>& args_for) {
  if (instances <= 0 || ranks_each <= 0) {
    throw MphError("builder: instances and ranks_each must be positive");
  }
  ExecutableBlock block;
  block.kind = BlockKind::multi_instance;
  for (int i = 0; i < instances; ++i) {
    ComponentEntry entry;
    entry.name = prefix + std::to_string(i + 1);
    entry.low = i * ranks_each;
    entry.high = entry.low + ranks_each - 1;
    if (args_for) {
      entry.args = ArgumentSet::from_tokens(args_for(i));
    }
    block.components.push_back(std::move(entry));
  }
  blocks_.push_back(std::move(block));
  return *this;
}

std::string RegistryBuilder::to_text() const {
  return Registry::to_text(blocks_);
}

Registry RegistryBuilder::build() const {
  // Parsing the serialized text applies every parser validation rule, so
  // programmatic and hand-written registries are held to one standard.
  return Registry::parse(to_text());
}

}  // namespace mph
