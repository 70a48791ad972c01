// actyp_query_tool: operator CLI for the query language.
//
// Reads a query (native key-value text, or ClassAd / RSL with
// --lang classad|rsl) from stdin or a file and prints the parsed terms,
// the pool signature/identifier mapping of §5.2.2, and the composite
// decomposition.
//
//   ./build/tools/actyp_query_tool [--lang native|classad|rsl] [file]
//   echo 'punch.rsrc.arch = sun|hp' | ./build/tools/actyp_query_tool
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "interop/classad.hpp"
#include "interop/rsl.hpp"
#include "query/parser.hpp"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "actyp_query_tool: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string lang = "native";
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lang") == 0 && i + 1 < argc) {
      lang = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: actyp_query_tool [--lang native|classad|rsl] [file]\n");
      return 0;
    } else {
      path = argv[i];
    }
  }

  std::string text;
  if (path.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) return Fail("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  if (lang == "classad") {
    auto translated = actyp::interop::TranslateClassAd(text);
    if (!translated.ok()) return Fail(translated.status().ToString());
    std::printf("-- translated from ClassAd --\n%s\n", translated->c_str());
    text = std::move(translated.value());
  } else if (lang == "rsl") {
    auto translated = actyp::interop::TranslateRsl(text);
    if (!translated.ok()) return Fail(translated.status().ToString());
    std::printf("-- translated from RSL --\n%s\n", translated->c_str());
    text = std::move(translated.value());
  } else if (lang != "native") {
    return Fail("unknown language '" + lang + "'");
  }

  auto composite = actyp::query::Parser::Parse(text);
  if (!composite.ok()) return Fail(composite.status().ToString());

  std::printf("valid query: %zu basic alternative(s)\n\n",
              composite->size());
  for (std::size_t i = 0; i < composite->size(); ++i) {
    const auto& q = composite->alternatives()[i];
    std::printf("alternative %zu:\n", i);
    for (const auto& [name, cond] : q.rsrc()) {
      std::printf("  rsrc  %-16s %s\n", name.c_str(),
                  cond.ToString().c_str());
    }
    for (const auto& [name, value] : q.appl()) {
      std::printf("  appl  %-16s %s\n", name.c_str(), value.c_str());
    }
    for (const auto& [name, value] : q.user()) {
      std::printf("  user  %-16s %s\n", name.c_str(), value.c_str());
    }
    std::printf("  signature  : %s\n", q.Signature().c_str());
    std::printf("  identifier : %s\n", q.Identifier().c_str());
    std::printf("  pool name  : %s\n\n", q.PoolName().c_str());
  }
  return 0;
}
