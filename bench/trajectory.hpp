#pragma once

// Output of the BENCH_*.json trajectory benches: the document goes to
// stdout and to the file CI diffs (argv[1], or the bench's default).

#include <fstream>
#include <iostream>
#include <string>

namespace recosim::bench {

inline void write_trajectory(const std::string& doc, const char* path) {
  std::cout << doc;
  std::ofstream f(path);
  f << doc;
  if (f)
    std::cerr << "wrote " << path << "\n";
  else  // the numbers were still printed
    std::cerr << "warning: could not write " << path << "\n";
}

}  // namespace recosim::bench
