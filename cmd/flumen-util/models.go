package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"flumen/internal/serve"
)

const (
	exitOK        = 0
	exitError     = 1
	exitUsage     = 2
	exitNotFound  = 3
	modelsTimeout = 60 * time.Second
	modelsUsage   = "usage: flumen-util models {register|list|rm} [flags]"
)

// runModels dispatches "flumen-util models <verb> ..." and returns the
// process exit code.
func runModels(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, modelsUsage)
		return exitUsage
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "register":
		return modelsRegister(rest)
	case "list":
		return modelsList(rest)
	case "rm":
		return modelsRemove(rest)
	default:
		fmt.Fprintf(os.Stderr, "flumen-util models: unknown subcommand %q (want register, list, or rm)\n", verb)
		return exitUsage
	}
}

func modelsFlags(verb string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("flumen-util models "+verb, flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:9090", "flumend or flumen-router base URL")
	return fs, server
}

func modelsClient() *http.Client {
	return &http.Client{Timeout: modelsTimeout}
}

// httpErr prints a transport or server failure and classifies the exit code.
func httpErr(verb string, resp *http.Response, body []byte) int {
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = resp.Status
	}
	fmt.Fprintf(os.Stderr, "flumen-util models %s: server answered %d: %s\n", verb, resp.StatusCode, msg)
	if resp.StatusCode == http.StatusNotFound {
		return exitNotFound
	}
	return exitError
}

func modelsRegister(args []string) int {
	fs, server := modelsFlags("register")
	file := fs.String("file", "", "model spec JSON file (default: read stdin)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "flumen-util models register: unexpected positional arguments (the spec comes from -file or stdin)")
		return exitUsage
	}

	var spec []byte
	var err error
	if *file != "" {
		spec, err = os.ReadFile(*file)
	} else {
		spec, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "flumen-util models register: reading spec: %v\n", err)
		return exitError
	}
	if !json.Valid(spec) {
		fmt.Fprintln(os.Stderr, "flumen-util models register: spec is not valid JSON")
		return exitUsage
	}

	resp, err := modelsClient().Post(*server+"/v1/models", "application/json", bytes.NewReader(spec))
	if err != nil {
		fmt.Fprintf(os.Stderr, "flumen-util models register: %v\n", err)
		return exitError
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return httpErr("register", resp, body)
	}
	var rr serve.ModelRegisterResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		fmt.Fprintf(os.Stderr, "flumen-util models register: bad response: %v\n", err)
		return exitError
	}
	state := "registered"
	if !rr.Created {
		state = "already registered"
	}
	fmt.Printf("%s %s@%s kind=%s digest=%s bytes=%d\n",
		state, rr.Model.Name, rr.Model.Version, rr.Model.Kind, shortDigest(rr.Model.Digest), rr.Model.Bytes)
	return exitOK
}

func modelsList(args []string) int {
	fs, server := modelsFlags("list")
	asJSON := fs.Bool("json", false, "print the raw JSON listing")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "flumen-util models list: unexpected positional arguments")
		return exitUsage
	}

	resp, err := modelsClient().Get(*server + "/v1/models")
	if err != nil {
		fmt.Fprintf(os.Stderr, "flumen-util models list: %v\n", err)
		return exitError
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return httpErr("list", resp, body)
	}
	if *asJSON {
		os.Stdout.Write(body)
		if len(body) > 0 && body[len(body)-1] != '\n' {
			fmt.Println()
		}
		return exitOK
	}
	var lr serve.ModelListResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		fmt.Fprintf(os.Stderr, "flumen-util models list: bad response: %v\n", err)
		return exitError
	}
	if len(lr.Models) == 0 {
		fmt.Println("no models registered")
		return exitOK
	}
	fmt.Printf("%-24s %-8s %-12s %10s  %-10s %s\n", "MODEL", "KIND", "DIGEST", "BYTES", "PREWARMED", "REGISTERED")
	for _, m := range lr.Models {
		fmt.Printf("%-24s %-8s %-12s %10d  %-10v %s\n",
			m.Name+"@"+m.Version, m.Kind, shortDigest(m.Digest), m.Bytes, m.Prewarmed, m.Registered)
	}
	return exitOK
}

func modelsRemove(args []string) int {
	fs, server := modelsFlags("rm")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: flumen-util models rm [-server URL] name@version")
		return exitUsage
	}
	ref := fs.Arg(0)

	req, err := http.NewRequest(http.MethodDelete, *server+"/v1/models/"+url.PathEscape(ref), nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flumen-util models rm: %v\n", err)
		return exitError
	}
	resp, err := modelsClient().Do(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flumen-util models rm: %v\n", err)
		return exitError
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return httpErr("rm", resp, body)
	}
	fmt.Printf("removed %s\n", ref)
	return exitOK
}

func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
