#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace lotus::util {

Cli::Cli(std::string program_description) : description_(std::move(program_description)) {}

Cli& Cli::opt(const std::string& name, const std::string& default_value,
              const std::string& help) {
  options_[name] = Option{default_value, default_value, help, false};
  order_.push_back(name);
  return *this;
}

Cli& Cli::flag(const std::string& name, const std::string& help) {
  options_[name] = Option{"0", "0", help, true};
  order_.push_back(name);
  return *this;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unexpected positional argument: " << arg << "\n";
      print_usage(argv[0]);
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    bool has_value = false;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(arg);
    if (it == options_.end()) {
      std::cerr << "unknown option: --" << arg << "\n";
      print_usage(argv[0]);
      return false;
    }
    if (it->second.is_flag) {
      it->second.value = has_value ? value : "1";
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          std::cerr << "option --" << arg << " expects a value\n";
          return false;
        }
        value = argv[++i];
      }
      it->second.value = value;
    }
  }
  return true;
}

const std::string& Cli::get(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end()) throw std::out_of_range("unknown option: " + name);
  return it->second.value;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return std::strtoll(get(name).c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& name) const {
  return std::strtod(get(name).c_str(), nullptr);
}

bool Cli::get_flag(const std::string& name) const {
  const std::string& v = get(name);
  return v == "1" || v == "true" || v == "yes";
}

void Cli::print_usage(const std::string& argv0) const {
  std::cerr << description_ << "\n\nusage: " << argv0 << " [options]\n";
  for (const auto& name : order_) {
    const Option& o = options_.at(name);
    std::cerr << "  --" << name;
    if (!o.is_flag) std::cerr << " <value> (default: " << o.default_value << ")";
    std::cerr << "\n      " << o.help << "\n";
  }
}

}  // namespace lotus::util
