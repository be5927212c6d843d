// Command flumen-util manages the model registry of a running flumend (or
// flumen-router, which fans registrations out to the whole fleet).
//
// Usage:
//
//	flumen-util models register -server http://host:9090 [-file spec.json]
//	flumen-util models list     -server http://host:9090
//	flumen-util models rm       -server http://host:9090 name@version
//
// register reads a registry spec (JSON) from -file or stdin and POSTs it to
// /v1/models; list prints the registered models; rm unregisters one.
//
// Exit codes: 0 success, 1 transport or server error, 2 usage error
// (a bare invocation included), 3 model not found (rm).
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "models" {
		fmt.Fprintln(os.Stderr, modelsUsage)
		os.Exit(exitUsage)
	}
	os.Exit(runModels(os.Args[2:]))
}
