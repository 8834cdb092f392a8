// A database instance: a catalog of named finite relations.
#ifndef EMCALC_STORAGE_DATABASE_H_
#define EMCALC_STORAGE_DATABASE_H_

#include <map>
#include <string>

#include "src/base/status.h"
#include "src/storage/relation.h"

namespace emcalc {

// Relations are keyed by name (strings, so a Database is independent of any
// AstContext's symbol table).
//
// Thread safety: const access is safe from many threads at once — any
// number of CompiledQuery / ParameterizedQuery runs may share one
// `const Database&` (a relation's lazy first sort is taken under a lock;
// see FlatRelation::Normalize). Mutation (AddRelation, Insert, assignment)
// is not synchronized: it must not overlap any other access.
class Database {
 public:
  Database() = default;

  // Creates an empty relation; error if the name exists with another arity.
  Status AddRelation(const std::string& name, int arity);

  // Inserts a tuple, creating the relation on first use.
  Status Insert(const std::string& name, Tuple t);

  // Lookup; nullptr when absent.
  const Relation* Find(const std::string& name) const;

  // Lookup that treats a missing relation as an error.
  StatusOr<const Relation*> Get(const std::string& name) const;

  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

  // Total number of tuples across all relations.
  size_t TotalTuples() const;

 private:
  std::map<std::string, Relation> relations_;
};

}  // namespace emcalc

#endif  // EMCALC_STORAGE_DATABASE_H_
