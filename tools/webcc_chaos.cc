// Command-line entry point; all logic lives in src/cli/chaos_driver.cc so it
// can be tested in-process.

#include <iostream>

#include "src/cli/args.h"
#include "src/cli/chaos_driver.h"

int main(int argc, char** argv) {
  return webcc::RunChaosCliDriver(webcc::ArgsFromArgv(argc, argv), std::cout, std::cerr);
}
